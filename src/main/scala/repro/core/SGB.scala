package repro.core

import scala.collection.mutable.ArrayBuffer

/** Result of the Schema Graph Builder.
  *
  * @param graph         schema containment graph (edge parent → child means
  *                      child.schema ⊆ parent.schema)
  * @param clusters      the overlapping clusters: each is (center, members)
  *                      where the center is also a member
  * @param centerChecks  number of schema-vs-center containment checks performed
  * @param pairChecks    number of within-cluster pairwise containment checks
  */
final case class SGBResult(
    graph: ContainmentGraph,
    clusters: Seq[SGBResult.Cluster],
    centerChecks: Long,
    pairChecks: Long,
) {
  /** Total pairwise schema operations, the instrumented counterpart of the
    * Table 3 formula N log N + K(N−K) + Σ C(K_i, 2).
    */
  def totalOps(n: Int): Long = {
    val sortOps = if (n <= 1) 0L else math.ceil(n * math.log(n) / math.log(2)).toLong
    sortOps + centerChecks + pairChecks
  }
}

object SGBResult {
  final case class Cluster(center: String, members: Seq[String])
}

/** Algorithm 1 (SGB): overlapping schema clustering + within-cluster edges.
  *
  * Traverses schemas in non-increasing size order; a schema contained in no
  * existing center becomes a new center, otherwise it joins *every* center
  * that contains it. Edges are then added between every ordered pair of
  * co-members with schema containment. Theorem 4.1 guarantees no ground-truth
  * schema-containment edge is missed.
  */
object SGB {

  /** Build the schema containment graph for `datasets` (name → schema set).
    *
    * Equal schema sets on distinct datasets yield edges in both directions:
    * either table could contain the other (including exact duplicates, P = Q).
    */
  def build(datasets: Seq[(String, SchemaSet)]): SGBResult = {
    require(datasets.map(_._1).distinct.size == datasets.size, "dataset names must be unique")
    final case class Cl(center: Int, members: ArrayBuffer[Int])

    // Stable sort: non-increasing schema size, ties by name for determinism.
    val order = datasets.zipWithIndex
      .sortBy { case ((name, s), _) => (-s.size, name) }
      .map(_._2)

    val schemas = datasets.map(_._2)
    val names = datasets.map(_._1)
    val clusters = ArrayBuffer.empty[Cl]
    var centerChecks = 0L

    for (i <- order) {
      val s = schemas(i)
      var contained = false
      for (c <- clusters) {
        centerChecks += 1
        val cc = schemas(c.center)
        if (s.size <= cc.size && s.subsetOf(cc)) {
          // A center is trivially contained in itself; it is already a member.
          if (i != c.center) c.members += i
          contained = true
        }
      }
      if (!contained) clusters += Cl(i, ArrayBuffer(i))
    }

    var pairChecks = 0L
    val edges = Set.newBuilder[Edge]
    for (c <- clusters) {
      val ms = c.members
      for (ai <- ms.indices; bi <- ms.indices if ai < bi) {
        pairChecks += 1
        edges ++= SchemaSet.edges(datasets(ms(ai)), datasets(ms(bi)))
      }
    }

    val clusterOut = clusters.toSeq.map(c => SGBResult.Cluster(names(c.center), c.members.toSeq.map(names)))
    SGBResult(ContainmentGraph(names, edges.result()), clusterOut, centerChecks, pairChecks)
  }
}
