package repro.bench

import repro.exp._

/** Table 4 — schema-containment baselines: SGB must find every ground-truth
  * schema edge (0 missed), while [3]'s feature classifier and KMeans
  * clustering miss some, KMeans the most (as in the paper).
  */
class Table4Bench extends BenchSpec {

  lazy val results: Seq[BaselineExperiment.Result] =
    PaperTables(4).lakes.map(n => BaselineExperiment.run(n, runs(n)))

  test("print Table 4 (paper vs measured)") {
    report(BaselineExperiment.render(results))
  }

  for (r <- PaperTables(4).lakes) {
    lazy val res = results.find(_.name == r).get

    test(s"$r: SGB detects every ground-truth schema edge") {
      assert(res.sgb.notDetected == 0)
      assert(res.sgb.correct > 0)
    }

    test(s"$r: the [3] classifier finds most but not all edges") {
      assert(res.bharadwaj.correct + res.bharadwaj.notDetected == res.sgb.correct)
      assert(res.bharadwaj.correct >= (0.5 * res.sgb.correct).toInt,
        s"[3] found only ${res.bharadwaj.correct} of ${res.sgb.correct}")
    }

    test(s"$r: SGB strictly dominates both baselines (paper's ordering)") {
      assert(res.sgb.correct >= res.bharadwaj.correct)
      assert(res.sgb.correct >= res.kmeans.correct)
    }
  }

  test("KMeans misses cross-cluster edges somewhere (hard cluster boundaries)") {
    // Whether a specific lake exposes the failure depends on where Lloyd's
    // boundaries fall; across the two customer lakes it must show up.
    val totalMissed = results.map(_.kmeans.notDetected).sum
    assert(totalMissed > 0, s"KMeans missed nothing across ${results.map(_.name)}")
  }
}
