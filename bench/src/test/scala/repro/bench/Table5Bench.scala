package repro.bench

import repro.exp._

/** Table 5 — wall-clock per stage versus ground truth. The paper's shape:
  * SGB is sub-second, MMP is metadata-only and much cheaper than CLP, CLP
  * dominates the pipeline at scale, and the whole pipeline beats brute-force
  * ground truth.
  */
class Table5Bench extends BenchSpec {

  lazy val outs: Seq[(String, PipelineOutput)] = PaperTables(5).lakes.map(n => n -> runs(n))

  test("print Table 5 (paper vs measured)") {
    report(PaperTables(5)(runs))
  }

  for (name <- PaperTables(5).lakes) {
    test(s"$name: SGB is sub-second (paper: 0.01–0.8 s)") {
      assert(runs(name).timings.sgbMs < 1000, s"sgb=${runs(name).timings.sgbMs} ms")
    }

    test(s"$name: MMP is metadata-only and far cheaper than CLP") {
      val t = runs(name).timings
      assert(t.mmpMs < t.clpMs, s"mmp=${t.mmpMs} clp=${t.clpMs}")
    }

    test(s"$name: CLP dominates total pipeline time (paper shape)") {
      val t = runs(name).timings
      assert(t.clpMs >= 0.5 * t.pipelineMs)
    }
  }

  test("pipeline op-cost advantage over GT grows with data scale (Fig. 4 spirit)") {
    // The two largest-rows lakes must show a bigger GT/CLP op gap than the
    // smallest one — the brute-force cost explodes quadratically with rows.
    val gap = outs.map { case (n, o) =>
      val ops = OpCountExperiment.compute(o)
      n -> ops.gtContent / math.max(1.0, ops.clp)
    }.toMap
    assert(gap("customer2") > gap("tableUnion"), s"gaps: $gap")
  }
}
