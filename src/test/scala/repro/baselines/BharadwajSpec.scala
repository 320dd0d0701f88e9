package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{GroundTruth, SchemaSet}

import scala.util.Random

class BharadwajSpec extends AnyFunSuite {

  private def s(tokens: String*): SchemaSet = SchemaSet(tokens.toSet)

  private val datasets: Seq[(String, SchemaSet)] = {
    val rng = new Random(21)
    val vocab = (0 until 10).map(i => s"col$i")
    (0 until 16).map(i => s"T$i" -> SchemaSet(rng.shuffle(vocab).take(2 + rng.nextInt(8)).toSet))
  }

  test("features: jaccard is 1 for identical schemas, 0 for disjoint") {
    val df = Map("a" -> 2, "b" -> 1, "c" -> 1)
    val f1 = Bharadwaj.features(s("a", "b"), s("a", "b"), df, 4)
    assert(f1(0) == 1.0)
    val f2 = Bharadwaj.features(s("a"), s("c"), df, 4)
    assert(f2(0) == 0.0 && f2(1) == 0.0)
  }

  test("features: rarer shared columns give higher idf") {
    val df = Map("rare" -> 1, "common" -> 10)
    val fRare = Bharadwaj.features(s("rare"), s("rare"), df, 10)
    val fCommon = Bharadwaj.features(s("common"), s("common"), df, 10)
    assert(fRare(1) > fCommon(1))
  }

  test("features: size ratio grows with schema size gap") {
    val df = Map.empty[String, Int]
    val near = Bharadwaj.features(s("a", "b"), s("a", "b", "c"), df, 2)
    val far = Bharadwaj.features(s("a"), ('a' to 'j').map(_.toString).foldLeft(SchemaSet(Set.empty[String]))((acc, t) => SchemaSet(acc.tokens + t)), df, 2)
    assert(far(2) > near(2))
  }

  test("classifier recovers a large majority of GT schema edges") {
    val (gt, _) = GroundTruth.schemaGraph(datasets)
    assume(gt.edges.nonEmpty)
    val res = Bharadwaj.run(datasets, gt)
    assert(res.correctlyIdentified + res.notDetected == gt.edges.size)
    assert(res.correctlyIdentified >= (0.6 * gt.edges.size).toInt,
      s"found ${res.correctlyIdentified} of ${gt.edges.size}")
  }

  test("run is deterministic in its seed") {
    val (gt, _) = GroundTruth.schemaGraph(datasets)
    val a = Bharadwaj.run(datasets, gt, seed = 3)
    val b = Bharadwaj.run(datasets, gt, seed = 3)
    assert(a.correctlyIdentified == b.correctlyIdentified && a.notDetected == b.notDetected)
  }
}
