package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
import repro.lake.Transformations
import repro.stats.{NumStats, StatsCatalog}

import scala.util.Random

class CLPSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.0002, seed = 23).cache()
  private def sch(df: DataFrame): SchemaSet = SchemaSet.fromStruct(df.schema)

  private def check(parent: DataFrame, child: DataFrame, cfg: CLPConfig = CLPConfig()): Boolean = {
    val (prune, _) = CLP.checkEdge(Edge("p", "c"), parent, child, sch(parent), sch(child), cfg)
    prune
  }

  test("never prunes a WHERE-filter child (true containment)") {
    val child = li.where(col("l_returnflag") === "N").cache()
    assert(!check(li, child))
  }

  test("never prunes a projection child") {
    val child = Transformations.project(li, Seq("l_tax")).cache()
    assert(!check(li, child))
  }

  test("never prunes an exact duplicate, either direction") {
    val dup = Transformations.duplicate(li)
    assert(!check(li, dup))
    assert(!check(dup, li))
  }

  test("never prunes a child of an add-columns parent (projection containment)") {
    val wide = Transformations.addDerivedColumns(li, 1, "w", new Random(1)).cache()
    assert(!check(wide, li))
  }

  test("prunes a disjoint sibling on the first probes") {
    val a = li.where(col("l_returnflag") === "N").cache()
    val b = li.where(col("l_returnflag") === "R").cache()
    assert(check(a, b))
    assert(check(b, a))
  }

  test("prunes heavy in-range noise with high probability") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.5, inRange = true, seed = 2).cache()
    assert(check(li, noisy, CLPConfig(s = 4, t = 10)))
  }

  test("light contamination often survives weak sampling but not strong sampling") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.35, inRange = true, seed = 3).cache()
    // With s·t large the detection probability 1−(1−ρ)^{s·t} ≈ 1.
    assert(check(li, noisy, CLPConfig(s = 8, t = 50, seed = 4)))
  }

  test("prune over a graph removes only refuted edges and counts probes") {
    val filt = li.where(col("l_quantity") <= 25).cache()
    val bad = li.withColumn("l_quantity", col("l_quantity") + 1000).cache()
    val names = Map("p" -> li, "filt" -> filt, "bad" -> bad)
    val schemas = names.map { case (k, v) => k -> sch(v) }
    val g = ContainmentGraph(names.keys, Seq(Edge("p", "filt"), Edge("p", "bad")))
    val res = CLP.prune(g, names(_), schemas(_), CLPConfig(s = 2, t = 5))
    assert(res.graph.edges == Set(Edge("p", "filt")))
    assert(res.pruned == Set(Edge("p", "bad")))
    assert(res.probeCount > 0)
  }

  test("no common columns means no probes and no pruning") {
    val other = spark.range(5).select(col("id").as("zzz"))
    val (prune, probes) = CLP.checkEdge(Edge("p", "c"), li, other, sch(li), sch(other), CLPConfig())
    assert(!prune && probes == 0)
  }

  test("null values are handled null-safely (a contained child with nulls is kept)") {
    val parent = spark.range(10).select(
      col("id"),
      when(col("id") % 2 === 0, col("id").cast("double")).as("maybe"),
    ).cache()
    val child = parent.where(col("id") < 5).cache()
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("a child with nulls absent from the parent is pruned") {
    val parent = spark.range(10).select(col("id"), col("id").cast("double").as("v")).cache()
    val child = spark.range(10).select(col("id"), lit(null).cast("double").as("v")).cache()
    assert(check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("paper footnote 6: every column's values contained but no row is pruned") {
    val parent = spark.createDataFrame(Seq((1, "a"), (2, "b"))).toDF("n", "s")
    val child = spark.createDataFrame(Seq((1, "b"), (2, "a"))).toDF("n", "s")
    assert(check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  private lazy val collections = StatsCatalog.flatten(spark.range(30).select(
    col("id"),
    array(col("id"), col("id") + 1).as("xs"),
    array(struct(col("id").as("a"), col("id").cast("string").as("b"))).as("items"),
    map(lit("k"), col("id"), lit("j"), col("id") * 2).as("m"),
  )).cache()

  test("array and map leaves join as whole values: a row subset is kept") {
    assert(!check(collections, collections.where(col("id") % 3 === 0), CLPConfig(s = 4, t = 30)))
  }

  test("a child that differs only in an array leaf is pruned") {
    val shifted = collections.withColumn("xs", array(col("id"), col("id") + 2))
    assert(check(collections, shifted, CLPConfig(s = 4, t = 30)))
  }

  test("probe budget respects s (probes ≤ s per edge)") {
    val dup = Transformations.duplicate(li)
    val (_, probes) = CLP.checkEdge(Edge("p", "c"), li, dup, sch(li), sch(dup), CLPConfig(s = 3, t = 5))
    assert(probes <= 3)
  }

  test("deterministic in seed") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.1, inRange = true, seed = 8).cache()
    val r1 = check(li, noisy, CLPConfig(s = 2, t = 3, seed = 99))
    val r2 = check(li, noisy, CLPConfig(s = 2, t = 3, seed = 99))
    assert(r1 == r2)
  }
}
