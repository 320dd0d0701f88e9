package repro.opt

/** A dataset node in the OPT-RET problem (Eq. 3).
  *
  * @param sizeBytes        S_v
  * @param accessesPerMonth A_v — expected customer-initiated accesses
  * @param maintPerMonth    f_v — expected maintenance operations
  * @param rowCount         used only for GDPR row-scan savings reporting
  */
final case class OptNode(
    name: String,
    sizeBytes: Double,
    accessesPerMonth: Double,
    maintPerMonth: Double,
    rowCount: Long = 0L,
)

/** A reconstruction edge parent → child with its estimated cost C_e. */
final case class OptEdge(parent: String, child: String, reconCost: Double)

final case class OptProblem(nodes: Seq[OptNode], edges: Seq[OptEdge], cm: CostModel) {
  require(nodes.map(_.name).distinct.size == nodes.size, "duplicate node names")

  /** Retention cost of v for a billing period: (C_s + C_m·f_v)·S_v. */
  def retentionCost(v: OptNode): Double =
    (cm.storagePerByteMonth + cm.maintPerByte * v.maintPerMonth) * v.sizeBytes

  /** Expected reconstruction cost if v is deleted and rebuilt via e: A_v·C_e. */
  def deletionCost(v: OptNode, e: OptEdge): Double = v.accessesPerMonth * e.reconCost
}

/** A feasible OPT-RET solution: the retained set, and for every deleted node
  * the chosen reconstruction edge (its y_e = 1).
  */
final case class OptSolution(retained: Set[String], reconstructVia: Map[String, OptEdge], cost: Double)

/** Solves OPT-RET (Eq. 3): minimize Σ retained (C_s + C_m f_v)S_v +
  * Σ deleted A_v C_e, subject to every deleted node having at least one
  * retained parent (safe deletion).
  *
  * Given the retained set, the optimal y picks each deleted node's cheapest
  * retained parent — so the search is over x only. The graph decomposes into
  * weakly-connected components solved independently by one exact
  * branch-and-bound; DYN-LIN's line graphs (Thm 5.1) are its special case.
  * A component of more than `bbLimit` nodes keeps every node, which is always
  * safe. No lake reaches that limit: OPT-RET edges need a provenance path, so
  * a component stays inside one lake family.
  */
object OptRet {

  def solve(p: OptProblem, bbLimit: Int = 24): OptSolution = {
    val nodeByName = p.nodes.map(n => n.name -> n).toMap
    val parentEdges: Map[String, Seq[OptEdge]] = p.edges.groupBy(_.child).withDefaultValue(Seq.empty)

    val graph = repro.core.ContainmentGraph(
      p.nodes.map(_.name),
      p.edges.map(e => repro.core.Edge(e.parent, e.child)),
    )
    val sols = graph.weakComponents.map { comp =>
      val sub = comp.toSeq.sorted.map(nodeByName)
      if (sub.size <= bbLimit) branchAndBound(p, sub, parentEdges)
      else OptSolution(comp, Map.empty, sub.map(p.retentionCost).sum)
    }
    OptSolution(sols.flatMap(_.retained).toSet, sols.flatMap(_.reconstructVia).toMap, sols.map(_.cost).sum)
  }

  /** Cost of a full assignment; None if infeasible. */
  def evaluate(
      p: OptProblem,
      nodes: Seq[OptNode],
      parentEdges: Map[String, Seq[OptEdge]],
      retainedSet: Set[String],
  ): Option[(Double, Map[String, OptEdge])] = {
    var cost = 0.0
    val via = Map.newBuilder[String, OptEdge]
    for (v <- nodes) {
      if (retainedSet(v.name)) cost += p.retentionCost(v)
      else {
        val usable = parentEdges(v.name).filter(e => retainedSet(e.parent))
        if (usable.isEmpty) return None
        val best = usable.minBy(_.reconCost)
        via += v.name -> best
        cost += p.deletionCost(v, best)
      }
    }
    Some((cost, via.result()))
  }

  private def branchAndBound(
      p: OptProblem,
      nodes: Seq[OptNode],
      parentEdges: Map[String, Seq[OptEdge]],
  ): OptSolution = {
    val n = nodes.size
    // Optimistic per-node bound: the cheaper of retaining v and its cheapest deletion.
    val optimistic = nodes.map(v => (p.retentionCost(v) +: parentEdges(v.name).map(p.deletionCost(v, _))).min).toArray
    val suffixBound = optimistic.scanRight(0.0)(_ + _)

    var best: Option[OptSolution] = None
    val state = new Array[Boolean](n) // retained?

    def rec(i: Int, partial: Double): Unit = {
      if (best.exists(partial + suffixBound(i) >= _.cost)) return
      if (i == n) {
        val retained = nodes.indices.collect { case j if state(j) => nodes(j).name }.toSet
        evaluate(p, nodes, parentEdges, retained).foreach { case (cost, via) =>
          if (best.forall(_.cost > cost)) best = Some(OptSolution(retained, via, cost))
        }
        return
      }
      val v = nodes(i)
      // Branch: retain first (always feasible), then delete if v has a parent to rebuild from.
      state(i) = true
      rec(i + 1, partial + p.retentionCost(v))
      if (parentEdges(v.name).nonEmpty) {
        state(i) = false
        rec(i + 1, partial + optimistic(i))
        state(i) = true
      }
    }
    rec(0, 0.0)
    best.getOrElse(throw new IllegalStateException("B&B found no feasible plan"))
  }
}
