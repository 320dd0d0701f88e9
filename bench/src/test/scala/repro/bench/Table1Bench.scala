package repro.bench

import repro.exp._

/** Table 1 — enterprise data: correct / incorrect / undetected edges after
  * each R2D2 stage on the three customer lake analogs.
  *
  * Shape requirements versus the paper: all ground-truth edges found at SGB
  * and never lost (Not detected = 0 at every stage); the incorrect-edge
  * count drops substantially at MMP and again at CLP.
  */
class Table1Bench extends BenchSpec {

  lazy val outs: Map[String, PipelineOutput] = PaperTables(1).lakes.map(n => n -> runs(n)).toMap

  test("print Table 1 (paper vs measured)") {
    report(PaperTables(1)(runs))
  }

  for (name <- PaperTables(1).lakes) {
    test(s"$name: zero undetected edges at every stage (100% recall)") {
      val out = outs(name)
      assert(out.evalSGB.notDetected == 0)
      assert(out.evalMMP.notDetected == 0)
      assert(out.evalCLP.notDetected == 0)
    }

    test(s"$name: correct edges preserved end-to-end") {
      val out = outs(name)
      val total = out.gt.graph.edges.size
      assert(total > 0, "lake must contain real containment")
      assert(out.evalSGB.correct == total && out.evalCLP.correct == total)
    }

    test(s"$name: MMP and CLP each cut the incorrect-edge count") {
      val out = outs(name)
      val (s, m, c) = (out.evalSGB.incorrect, out.evalMMP.incorrect, out.evalCLP.incorrect)
      assert(s > 0, "schema graph must over-approximate")
      assert(m < s, s"MMP should prune some incorrect edges (SGB=$s MMP=$m)")
      assert(c <= (0.8 * m).toInt + 1, s"CLP should cut most remaining (MMP=$m CLP=$c)")
    }
  }

  test("customer1 has the densest schema graph of the three (paper shape)") {
    assert(outs("customer1").sgb.graph.edgeCount > outs("customer2").sgb.graph.edgeCount)
    assert(outs("customer1").sgb.graph.edgeCount > outs("customer3").sgb.graph.edgeCount)
  }
}
