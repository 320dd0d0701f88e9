package repro.bench

import repro.exp._

/** Table 6 — CLP parameter selection on the customer2 lake (the paper's
  * 42 TB enterprise dataset): incorrect edges remaining per (s, t).
  * Paper shape: s=1 leaves many incorrect edges; s=4 cuts them drastically;
  * s=8 adds little beyond s=4; larger t helps mildly.
  */
class Table6Bench extends BenchSpec {

  lazy val sweep: SweepExperiment.Result = SweepExperiment.run(runs(PaperTables(6).lakes.head))

  test("print Table 6 (paper vs measured)") {
    report(SweepExperiment.render(sweep))
  }

  test("more search columns never hurt: incorrect(s=4) ≤ incorrect(s=1) for every t") {
    for (t <- SweepExperiment.tValues)
      assert(sweep.incorrect((4, t)) <= sweep.incorrect((1, t)),
        s"t=$t: s4=${sweep.incorrect((4, t))} s1=${sweep.incorrect((1, t))}")
  }

  test("s=4 is the big win: it removes a large share of s=1's residual edges") {
    val s1 = sweep.incorrect((1, 10))
    val s4 = sweep.incorrect((4, 10))
    assert(s1 > 0, "sweep needs residual incorrect edges at s=1")
    assert(s4 <= (0.85 * s1).toInt + 2, s"s1=$s1 s4=$s4")
  }

  test("diminishing returns beyond s=4 (paper: 122 → 121 at t=10)") {
    for (t <- SweepExperiment.tValues) {
      val s4 = sweep.incorrect((4, t))
      val s8 = sweep.incorrect((8, t))
      assert(s8 <= s4, s"t=$t: s8=$s8 > s4=$s4")
      // The s=4 → s=8 improvement must be much smaller than s=1 → s=4.
      val bigWin = sweep.incorrect((1, t)) - s4
      assert(s4 - s8 <= math.max(2, bigWin), s"t=$t: no diminishing returns")
    }
  }

  test("larger t helps (mildly), never substantially hurts") {
    for (s <- SweepExperiment.sValues) {
      val t5 = sweep.incorrect((s, 5))
      val t30 = sweep.incorrect((s, 30))
      assert(t30 <= t5 + math.max(2, t5 / 10), s"s=$s: t30=$t30 t5=$t5")
    }
  }

  test("recall is perfect at every parameter setting") {
    // rerunCLP's eval counts notDetected vs ground truth; re-check extremes.
    val out = runs("customer2")
    val (_, weak) = out.rerunCLP(repro.core.CLPConfig(s = 1, t = 5))
    val (_, strong) = out.rerunCLP(repro.core.CLPConfig(s = 8, t = 30))
    assert(weak.notDetected == 0 && strong.notDetected == 0)
  }
}
