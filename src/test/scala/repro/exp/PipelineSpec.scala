package repro.exp

import repro.SparkSpec
import repro.core.CLPConfig

/** End-to-end pipeline behaviour on the tiny lake profile — the §4 claims:
  * recall is never lost at any stage, incorrect edges shrink monotonically,
  * and every table-experiment renderer runs over a real output.
  */
class PipelineSpec extends SparkSpec {

  lazy val out: PipelineOutput = PipelineRunner.run(spark, Profiles.tiny())

  test("tiny lake generates the expected number of datasets") {
    assert(out.lake.datasets.size == 15)
    assert(out.lake.datasets.map(_.name).distinct.size == 15)
  }

  test("ground truth contains at least one containment edge per derived kind that guarantees it") {
    val byKind = out.lake.datasets.groupBy(_.kind)
    for (kind <- Seq("filter", "project", "duplicate", "addrows", "addcols")) {
      assert(byKind.contains(kind), s"profile should generate a $kind dataset")
    }
    assert(out.gt.graph.edges.nonEmpty)
  }

  test("SGB misses no ground-truth containment edge (Theorem 4.1)") {
    assert(out.evalSGB.notDetected == 0)
  }

  test("MMP misses no ground-truth containment edge") {
    assert(out.evalMMP.notDetected == 0)
  }

  test("CLP misses no ground-truth containment edge") {
    assert(out.evalCLP.notDetected == 0)
  }

  test("correct edge count is preserved across all stages") {
    assert(out.evalSGB.correct == out.gt.graph.edges.size)
    assert(out.evalMMP.correct == out.gt.graph.edges.size)
    assert(out.evalCLP.correct == out.gt.graph.edges.size)
  }

  test("incorrect edges shrink monotonically through the stages") {
    assert(out.evalMMP.incorrect <= out.evalSGB.incorrect)
    assert(out.evalCLP.incorrect <= out.evalMMP.incorrect)
  }

  test("CLP removes most incorrect edges that survive MMP") {
    assert(out.evalCLP.incorrect <= math.max(2, out.evalMMP.incorrect / 2))
  }

  test("every stage only removes edges — never adds") {
    assert(out.mmp.graph.edges.subsetOf(out.sgb.graph.edges))
    assert(out.clp.graph.edges.subsetOf(out.mmp.graph.edges))
  }

  test("stage timings are recorded") {
    val t = out.timings
    assert(t.sgbMs >= 0 && t.mmpMs >= 0 && t.clpMs > 0 && out.gtMs > 0)
  }

  test("SGB is orders of magnitude cheaper than brute-force content ground truth") {
    val ops = OpCountExperiment.compute(out)
    assert(ops.gtContent > 5 * ops.clp, s"gt=${ops.gtContent} clp=${ops.clp}")
    assert(ops.gtContent > 100 * ops.sgb, s"gt=${ops.gtContent} sgb=${ops.sgb}")
  }

  test("rerunCLP with larger samples prunes at least as many edges") {
    val (_, weak) = out.rerunCLP(CLPConfig(s = 1, t = 2, seed = 5))
    val (_, strong) = out.rerunCLP(CLPConfig(s = 6, t = 50, seed = 5))
    assert(strong.incorrect <= weak.incorrect)
    assert(strong.notDetected == 0 && weak.notDetected == 0)
  }

  test("edge-count renderers produce paper-vs-ours rows") {
    val txt = EdgeCountExperiments.render("Table 1", Map.empty)(Seq("tiny" -> out))
    assert(txt.contains("tiny") && txt.contains("after CLP"))
  }

  test("op-count, timing and sweep renderers run on a real output") {
    assert(OpCountExperiment.render(Seq("tiny" -> out)).contains("GT content"))
    assert(TimingExperiment.render(Seq("tiny" -> out)).contains("Ground Truth"))
  }
}
