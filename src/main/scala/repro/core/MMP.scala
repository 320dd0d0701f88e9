package repro.core

import repro.stats.{ColStats, DatasetStats, NumStats, StrStats}

/** Result of min-max pruning.
  *
  * @param graph     the graph with violating edges removed
  * @param pruned    the edges that were removed
  * @param opCount   edges examined — the Table 3 cost model counts MMP as
  *                  E₁ metadata operations (one per schema-graph edge)
  */
final case class MMPResult(graph: ContainmentGraph, pruned: Set[Edge], opCount: Long)

/** Algorithm 2 (MMP): prune edge x → y when any common column's value range
  * in the child y extends outside the parent x's range — a necessary
  * condition for `y ⊆ x` is `min x.c ≤ min y.c` and `max x.c ≥ max y.c` for
  * every common column c.
  *
  * Only dataset *metadata* (the stats catalog / parquet footers) is touched;
  * no rows are scanned. Exact stats make this safe: a true containment edge
  * can never violate the range condition, so recall is preserved.
  */
object MMP {

  /** True iff the edge must be pruned (child range escapes parent range).
    * Strings compare in Spark's own order, the one their stats were taken in.
    */
  def violates(parent: DatasetStats, child: DatasetStats): Boolean = {
    val common = parent.cols.keySet.intersect(child.cols.keySet)
    common.exists { c =>
      (parent.cols(c), child.cols(c)) match {
        case (NumStats(pMin, pMax), NumStats(cMin, cMax)) => pMin > cMin || pMax < cMax
        case (StrStats(pMin, pMax), StrStats(cMin, cMax)) =>
          StrStats.order.gt(pMin, cMin) || StrStats.order.lt(pMax, cMax)
        case _ => false // mixed or unusable stats — cannot safely prune
      }
    }
  }

  def prune(graph: ContainmentGraph, stats: String => DatasetStats): MMPResult = {
    val pruned = graph.edges.filter(e => violates(stats(e.parent), stats(e.child)))
    MMPResult(graph.removeEdges(pruned), pruned, graph.edges.size.toLong)
  }
}
