package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{GroundTruth, SchemaSet}

class KMeansSchemaSpec extends AnyFunSuite {

  private def s(tokens: String*): SchemaSet = SchemaSet(tokens.toSet)

  test("token embeddings are L2-normalized and deterministic") {
    val e1 = KMeansSchema.embedToken("customer_id")
    val e2 = KMeansSchema.embedToken("customer_id")
    assert(e1.toSeq == e2.toSeq)
    assert(math.abs(e1.map(x => x * x).sum - 1.0) < 1e-9)
  }

  test("different tokens usually embed differently") {
    assert(KMeansSchema.embedToken("price").toSeq != KMeansSchema.embedToken("timestamp").toSeq)
  }

  test("schema embedding is the mean of column embeddings") {
    val single = KMeansSchema.embedSchema(s("alpha"))
    assert(single.toSeq == KMeansSchema.embedToken("alpha").toSeq)
  }

  test("schema embedding sums its tokens in sorted order, bit for bit") {
    val tokens = (1 to 24).map(i => s"col_${(i * 7919) % 101}_x")
    val expected = new Array[Double](KMeansSchema.Dim)
    for (t <- tokens.sorted; e = KMeansSchema.embedToken(t); i <- expected.indices) expected(i) += e(i)
    val mean = expected.map(_ / tokens.size)
    assert(KMeansSchema.embedSchema(SchemaSet(tokens)).toSeq == mean.toSeq)
  }

  test("kmeans separates two obvious blobs") {
    val a = Seq.fill(5)(Array(0.0, 0.0))
    val b = Seq.fill(5)(Array(10.0, 10.0))
    val assign = KMeansSchema.kmeans(a ++ b, k = 2, seed = 1)
    assert(assign.take(5).distinct.size == 1)
    assert(assign.drop(5).distinct.size == 1)
    assert(assign.head != assign.last)
  }

  test("kmeans handles k larger than the point count") {
    val assign = KMeansSchema.kmeans(Seq(Array(1.0), Array(2.0)), k = 10, seed = 1)
    assert(assign.length == 2)
  }

  test("run reports correct + missed = total GT edges") {
    val datasets = Seq(
      "a" -> s("x", "y", "z"), "b" -> s("x", "y"), "c" -> s("x"),
      "d" -> s("p", "q", "r"), "e" -> s("p", "q"),
    )
    val (gt, _) = GroundTruth.schemaGraph(datasets)
    val res = KMeansSchema.run(datasets, gt, k = 2)
    assert(res.correctlyIdentified + res.notDetected == gt.edges.size)
    assert(res.graph.edges.forall { e =>
      datasets.toMap.apply(e.child).subsetOf(datasets.toMap.apply(e.parent))
    })
  }

  test("hard clustering can miss cross-cluster containment edges") {
    // Schemas engineered so the universal container embeds away from the tiny
    // schemas: with k = cluster-per-blob, cross-blob containment pairs are
    // never compared. We only require *some* miss across seeds to show the
    // structural failure mode the paper reports for KMeans.
    val datasets = Seq(
      "whole" -> s("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"),
      "tiny1" -> s("alpha"),
      "tiny2" -> s("beta"),
      "other1" -> s("alpha", "beta", "gamma"),
      "other2" -> s("delta", "epsilon", "zeta"),
    )
    val (gt, _) = GroundTruth.schemaGraph(datasets)
    val missesAcrossSeeds = (1 to 5).map(seed => KMeansSchema.run(datasets, gt, k = 3, seed).notDetected)
    assert(missesAcrossSeeds.exists(_ > 0), s"expected some misses, got $missesAcrossSeeds")
  }
}
