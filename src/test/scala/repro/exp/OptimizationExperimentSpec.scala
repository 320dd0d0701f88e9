package repro.exp

import repro.SparkSpec
import repro.opt.OptRet

/** Table 7 machinery over a real pipeline output (tiny lake). */
class OptimizationExperimentSpec extends SparkSpec {

  lazy val out: PipelineOutput = PipelineRunner.run(spark, Profiles.tiny(seed = 55))
  lazy val res: OptimizationExperiment.Result = OptimizationExperiment.run("tiny", out)

  test("node partition: deleted + retained = all graph nodes") {
    assert(res.deletedNodes + res.retainedNodes == out.clp.graph.nodes.size)
  }

  test("every deleted dataset has a retained reconstruction parent") {
    val retained = res.solution.retained
    res.solution.reconstructVia.foreach { case (child, e) =>
      assert(!retained(child) && retained(e.parent))
    }
    assert(res.retentionEdges == res.deletedNodes)
  }

  test("some redundancy is actually found and deleted on the tiny lake") {
    assert(res.deletedNodes > 0, "expected at least one contained dataset to be deleted")
  }

  test("solution cost is optimal for the built problem (matches fresh solve)") {
    val again = OptRet.solve(res.problem)
    assert(math.abs(again.cost - res.solution.cost) < 1e-9)
  }

  test("GDPR savings equal deleted rows × weeks per month") {
    val rows = res.problem.nodes.filterNot(n => res.solution.retained(n.name)).map(_.rowCount.toDouble).sum
    assert(math.abs(res.gdprRowScansSavedPerMonth - rows * OptimizationExperiment.WeeksPerMonth) < 1e-6)
  }

  test("only transformation-known, latency-feasible edges enter the problem") {
    assert(res.problem.edges.size <= out.clp.graph.edgeCount)
    val known = repro.opt.Preprocess.provenanceKnown(out.lake.provenance)
    res.problem.edges.foreach(e => assert(known(repro.core.Edge(e.parent, e.child))))
  }

  test("renderer prints paper-vs-ours rows") {
    val txt = OptimizationExperiment.render(Seq(res))
    assert(txt.contains("tiny") && txt.contains("GDPR"))
  }

  test("retention cost and deletion cost are positive for real nodes") {
    res.problem.nodes.foreach(n => assert(res.problem.retentionCost(n) > 0))
  }
}
