package repro.baselines

import repro.core.{ContainmentGraph, Edge, SchemaSet}

import scala.util.Random

/** KMeans clustering baseline for schema containment (§6.4.1).
  *
  * Each table is embedded as the mean of its column-name embeddings
  * (character-trigram hashing — a stand-in for pretrained word embeddings;
  * the baseline's weakness is structural, not embedding-specific), the
  * embeddings are clustered with Lloyd's KMeans, and pairwise schema
  * containment is evaluated only *within* clusters. Hard cluster boundaries
  * lose cross-cluster edges, producing the "Not Detected" counts of Table 4
  * — unlike SGB, whose overlapping clusters provably miss nothing.
  */
object KMeansSchema {

  val Dim = 32

  /** Char-trigram hashed embedding of one column name, L2-normalized. */
  def embedToken(token: String): Array[Double] = {
    val v = new Array[Double](Dim)
    val s = s"^${token.toLowerCase}$$"
    for (i <- 0 to s.length - 3) {
      val tri = s.substring(i, i + 3)
      v(math.floorMod(tri.hashCode, Dim)) += 1.0
    }
    val norm = math.sqrt(v.map(x => x * x).sum)
    if (norm > 0) v.map(_ / norm) else v
  }

  /** Table embedding = mean of column embeddings, summed in token order so
    * the floating-point result does not depend on set iteration order.
    */
  def embedSchema(s: SchemaSet): Array[Double] = {
    val v = new Array[Double](Dim)
    for (t <- s.tokens.toSeq.sorted; e = embedToken(t); i <- 0 until Dim) v(i) += e(i)
    if (s.tokens.nonEmpty) v.map(_ / s.tokens.size) else v
  }

  private def dist2(a: Array[Double], b: Array[Double]): Double = {
    var d = 0.0
    var i = 0
    while (i < a.length) { val x = a(i) - b(i); d += x * x; i += 1 }
    d
  }

  /** Lloyd's KMeans with seeded init; returns cluster index per point. */
  def kmeans(points: Seq[Array[Double]], k: Int, seed: Long, iters: Int = 25): Array[Int] = {
    require(points.nonEmpty && k >= 1)
    val rng = new Random(seed)
    val kk = math.min(k, points.size)
    var centers = rng.shuffle(points.indices.toList).take(kk).map(points(_).clone).toArray
    val assign = new Array[Int](points.size)
    for (_ <- 0 until iters) {
      for (i <- points.indices)
        assign(i) = centers.indices.minBy(c => dist2(points(i), centers(c)))
      centers = Array.tabulate(kk) { c =>
        val members = points.indices.filter(assign(_) == c)
        if (members.isEmpty) centers(c)
        else {
          val m = new Array[Double](points.head.length)
          for (i <- members; j <- m.indices) m(j) += points(i)(j)
          m.map(_ / members.size)
        }
      }
    }
    assign
  }

  final case class Result(graph: ContainmentGraph, correctlyIdentified: Int, notDetected: Int)

  /** Cluster schemas, evaluate containment within clusters, compare with the
    * ground-truth schema graph.
    */
  def run(
      datasets: Seq[(String, SchemaSet)],
      gtSchema: ContainmentGraph,
      k: Int,
      seed: Long = 13,
  ): Result = {
    val points = datasets.map { case (_, s) => embedSchema(s) }
    val assign = kmeans(points, k, seed)
    val edges = Set.newBuilder[Edge]
    for (c <- 0 until k) {
      val members = datasets.indices.filter(assign(_) == c)
      for (ai <- members; bi <- members if ai < bi) edges ++= SchemaSet.edges(datasets(ai), datasets(bi))
    }
    val g = ContainmentGraph(datasets.map(_._1), edges.result())
    val found = gtSchema.edges.count(g.edges.contains)
    Result(g, found, gtSchema.edges.size - found)
  }
}
