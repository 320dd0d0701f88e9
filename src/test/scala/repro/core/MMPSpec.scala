package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.stats.{DatasetStats, NumStats, StatsOracle, StrStats}

import scala.util.Random

class MMPSpec extends SparkSpec {

  private def ds(cols: (String, Any)*): DatasetStats =
    DatasetStats(100, 1000, cols.map {
      case (n, (lo: Double, hi: Double)) => n -> NumStats(lo, hi)
      case (n, (lo: String, hi: String)) => n -> StrStats(lo, hi)
      case (n, s: NumStats)              => n -> s
      case other                         => throw new IllegalArgumentException(other.toString)
    }.toMap)

  test("child range inside parent range does not violate") {
    val parent = ds("x" -> (0.0, 100.0))
    val child = ds("x" -> (10.0, 90.0))
    assert(!MMP.violates(parent, child))
  }

  test("child min below parent min violates") {
    assert(MMP.violates(ds("x" -> (10.0, 100.0)), ds("x" -> (5.0, 90.0))))
  }

  test("child max above parent max violates") {
    assert(MMP.violates(ds("x" -> (0.0, 50.0)), ds("x" -> (10.0, 90.0))))
  }

  test("identical ranges do not violate (duplicates must survive)") {
    assert(!MMP.violates(ds("x" -> (3.0, 7.0)), ds("x" -> (3.0, 7.0))))
  }

  test("violation on any single common column suffices") {
    val parent = ds("x" -> (0.0, 100.0), "y" -> (0.0, 10.0))
    val child = ds("x" -> (10.0, 90.0), "y" -> (0.0, 20.0))
    assert(MMP.violates(parent, child))
  }

  test("non-common columns are ignored") {
    val parent = ds("x" -> (0.0, 100.0), "only_parent" -> (0.0, 1.0))
    val child = ds("x" -> (1.0, 99.0), "only_child" -> (-50.0, 50.0))
    assert(!MMP.violates(parent, child))
  }

  test("string stats prune lexicographically") {
    assert(MMP.violates(ds("s" -> ("b", "m")), ds("s" -> ("a", "m"))))
    assert(!MMP.violates(ds("s" -> ("a", "z")), ds("s" -> ("b", "m"))))
  }

  test("mixed stat kinds on the same column never prune (cannot compare safely)") {
    val parent = ds("x" -> ("a", "z"))
    val child = ds("x" -> (0.0, 1.0))
    assert(!MMP.violates(parent, child))
  }

  test("prune removes exactly the violating edges and counts one op per edge") {
    val stats = Map(
      "p" -> ds("x" -> (0.0, 100.0)),
      "good" -> ds("x" -> (10.0, 90.0)),
      "bad" -> ds("x" -> (-5.0, 90.0)),
    )
    val g = ContainmentGraph(stats.keys, Seq(Edge("p", "good"), Edge("p", "bad")))
    val res = MMP.prune(g, stats(_))
    assert(res.pruned == Set(Edge("p", "bad")))
    assert(res.graph.edges == Set(Edge("p", "good")))
    assert(res.opCount == 2)
  }

  /** Safety property: if the child's values are truly a subset of the
    * parent's per column, MMP can never prune — randomized over synthetic
    * column ranges.
    */
  for (trial <- 0 until 20) {
    test(s"MMP never prunes a true containment (trial $trial)") {
      val rng = new Random(500 + trial)
      val cols = (0 until 1 + rng.nextInt(5)).map(i => s"c$i")
      val parentRanges = cols.map { c =>
        val lo = rng.nextDouble() * 100
        c -> (lo, lo + rng.nextDouble() * 100)
      }
      // Child range drawn strictly inside the parent's.
      val childRanges = parentRanges.map { case (c, (lo, hi)) =>
        val a = lo + rng.nextDouble() * (hi - lo) / 2
        val b = hi - rng.nextDouble() * (hi - lo) / 2
        c -> (math.min(a, b), math.max(a, b))
      }
      assert(!MMP.violates(ds(parentRanges: _*), ds(childRanges: _*)))
    }
  }

  test("string stats compare in Spark's UTF-8 byte order, not UTF-16 order") {
    // U+FFFD sorts above U+1F600 in UTF-16 code units, below it in UTF-8 bytes.
    assert(!MMP.violates(ds("s" -> ("\uFFFD", "\uD83D\uDE00")), ds("s" -> ("\uD83D\uDE00", "\uD83D\uDE00"))))
    assert(MMP.violates(ds("s" -> ("\uD83D\uDE00", "\uD83D\uDE00")), ds("s" -> ("\uFFFD", "\uD83D\uDE00"))))
  }

  /** Any Unicode scalar value: ASCII, the rest of the BMP (no surrogates) and
    * the supplementary planes, where UTF-16 and UTF-8 orders disagree.
    */
  private val codePoint: Gen[Int] = Gen.frequency(
    3 -> Gen.choose(0x20, 0x7e),
    2 -> Gen.oneOf(Gen.choose(0x80, 0xd7ff), Gen.choose(0xe000, 0xffff)),
    2 -> Gen.choose(0x10000, 0x10ffff),
  )
  private val unicode: Gen[String] =
    Gen.choose(0, 4).flatMap(Gen.listOfN(_, codePoint)).map(cps => new String(cps.toArray, 0, cps.size))

  test("property: MMP never prunes df → df.where(...) over arbitrary Unicode strings") {
    val prop = Prop.forAllNoShrink(Gen.nonEmptyListOf(unicode), Gen.long) { (values, mask) =>
      val parent = spark.createDataFrame(values.zipWithIndex).toDF("s", "i")
      val keep = values.indices.filter(i => (mask >>> (i % 64) & 1L) == 0L)
      val child = parent.where(col("i").isin(keep: _*))
      val stats = Map("p" -> StatsOracle.compute(parent), "c" -> StatsOracle.compute(child))
      MMP.prune(ContainmentGraph(stats.keys, Seq(Edge("p", "c"))), stats(_)).pruned.isEmpty
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(20231L), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
