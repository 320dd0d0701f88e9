package repro.opt

/** OPT-RET by enumerating every retained set (2^N): the reference that
  * [[OptRet.solve]]'s branch-and-bound is checked against.
  */
object BruteForce {

  def solve(p: OptProblem): OptSolution = {
    val parentEdges = p.edges.groupBy(_.child).withDefaultValue(Seq.empty[OptEdge])
    require(p.nodes.size <= 20, "brute force limited to 20 nodes")
    var best: Option[OptSolution] = None
    for (mask <- 0 until (1 << p.nodes.size)) {
      val retained = p.nodes.zipWithIndex.collect { case (n, i) if (mask & (1 << i)) != 0 => n.name }.toSet
      OptRet.evaluate(p, p.nodes, parentEdges, retained).foreach { case (cost, via) =>
        if (best.forall(_.cost > cost)) best = Some(OptSolution(retained, via, cost))
      }
    }
    best.getOrElse(throw new IllegalStateException("no feasible solution"))
  }
}
