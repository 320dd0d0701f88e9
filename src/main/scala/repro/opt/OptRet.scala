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
  * weakly-connected components solved independently: exact branch-and-bound
  * for components up to `bbLimit` nodes, greedy local search beyond (used
  * only for the Fig. 6 random-graph scalability regime).
  */
object OptRet {

  def solve(p: OptProblem, bbLimit: Int = 24): OptSolution = {
    val nodeByName = p.nodes.map(n => n.name -> n).toMap
    val parentEdges: Map[String, Seq[OptEdge]] = p.edges.groupBy(_.child).withDefaultValue(Seq.empty)

    val graph = repro.core.ContainmentGraph(
      p.nodes.map(_.name),
      p.edges.map(e => repro.core.Edge(e.parent, e.child)),
    )
    var retained = Set.newBuilder[String]
    var via = Map.newBuilder[String, OptEdge]
    var total = 0.0
    for (comp <- graph.weakComponents) {
      val sub = comp.toSeq.sorted
      val sol =
        if (sub.size <= bbLimit) branchAndBound(p, sub.map(nodeByName), parentEdges)
        else greedy(p, sub.map(nodeByName), parentEdges)
      retained ++= sol.retained
      via ++= sol.reconstructVia
      total += sol.cost
    }
    OptSolution(retained.result(), via.result(), total)
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

  /** Exhaustive reference (tests only; 2^N). */
  def bruteForce(p: OptProblem): OptSolution = {
    val parentEdges = p.edges.groupBy(_.child).withDefaultValue(Seq.empty[OptEdge])
    require(p.nodes.size <= 20, "brute force limited to 20 nodes")
    var best: Option[OptSolution] = None
    for (mask <- 0 until (1 << p.nodes.size)) {
      val retained = p.nodes.zipWithIndex.collect { case (n, i) if (mask & (1 << i)) != 0 => n.name }.toSet
      evaluate(p, p.nodes, parentEdges, retained).foreach { case (cost, via) =>
        if (best.forall(_.cost > cost)) best = Some(OptSolution(retained, via, cost))
      }
    }
    best.getOrElse(throw new IllegalStateException("no feasible solution"))
  }

  private def branchAndBound(
      p: OptProblem,
      nodes: Seq[OptNode],
      parentEdges: Map[String, Seq[OptEdge]],
  ): OptSolution = {
    val n = nodes.size
    // Optimistic per-node bound: min(retain, best-possible deletion).
    val optimistic = nodes.map { v =>
      val es = parentEdges(v.name)
      val bestDel = if (es.isEmpty) Double.PositiveInfinity else es.map(p.deletionCost(v, _)).min
      math.min(p.retentionCost(v), bestDel)
    }.toArray
    val suffixBound = Array.fill(n + 1)(0.0)
    for (i <- n - 1 to 0 by -1) suffixBound(i) = suffixBound(i + 1) +
      (if (optimistic(i).isInfinity) p.retentionCost(nodes(i)) else optimistic(i))

    var bestCost = Double.PositiveInfinity
    var bestSet: Set[String] = Set.empty
    val state = new Array[Boolean](n) // retained?

    def leafCost(): Option[(Double, Map[String, OptEdge])] = {
      val retained = nodes.zipWithIndex.collect { case (v, i) if state(i) => v.name }.toSet
      evaluate(p, nodes, parentEdges, retained)
    }

    def rec(i: Int, partial: Double): Unit = {
      if (partial + suffixBound(i) >= bestCost) return
      if (i == n) {
        leafCost().foreach { case (cost, _) =>
          if (cost < bestCost) {
            bestCost = cost
            bestSet = nodes.zipWithIndex.collect { case (v, j) if state(j) => v.name }.toSet
          }
        }
        return
      }
      val v = nodes(i)
      // Branch: retain first (always feasible), then delete.
      state(i) = true
      rec(i + 1, partial + p.retentionCost(v))
      if (!optimistic(i).isInfinity) {
        state(i) = false
        rec(i + 1, partial + optimistic(i))
        state(i) = true
      }
    }
    rec(0, 0.0)
    val (cost, via) = evaluate(p, nodes, parentEdges, bestSet)
      .getOrElse(throw new IllegalStateException("B&B produced infeasible best"))
    OptSolution(bestSet, via, cost)
  }

  /** Greedy local search: start all-retained; repeatedly delete the node with
    * the largest positive saving while feasibility holds.
    */
  def greedy(
      p: OptProblem,
      nodes: Seq[OptNode],
      parentEdges: Map[String, Seq[OptEdge]],
  ): OptSolution = {
    var retained = nodes.map(_.name).toSet
    var improved = true
    while (improved) {
      improved = false
      val candidates = nodes.filter(v => retained(v.name)).flatMap { v =>
        val without = retained - v.name
        evaluate(p, nodes, parentEdges, without).map { case (cost, _) => (v.name, cost) }
      }
      val cur = evaluate(p, nodes, parentEdges, retained).get._1
      candidates.sortBy(_._2).headOption.filter(_._2 < cur - 1e-12).foreach { case (name, _) =>
        retained -= name
        improved = true
      }
    }
    val (cost, via) = evaluate(p, nodes, parentEdges, retained).get
    OptSolution(retained, via, cost)
  }
}
