package repro.bench

import repro.exp._

/** Table 3 — pairwise-operation counts: R2D2's stages must be orders of
  * magnitude below the brute-force ground-truth costs, as in the paper
  * (e.g. GT content ~10²¹ vs CLP ~10¹⁰ at enterprise scale).
  */
class Table3Bench extends BenchSpec {

  test("print Table 3 (paper vs measured)") {
    report(PaperTables(3)(runs))
  }

  for (name <- PaperTables(3).lakes) {
    test(s"$name: GT content cost dwarfs every pipeline stage") {
      val o = OpCountExperiment.compute(runs(name))
      // The GT/CLP gap scales with rows-per-table ÷ t (paper: ~10¹⁰× on TB
      // data); at our scale it must still be a clear order of magnitude.
      assert(o.gtContent > 10 * o.clp, s"gtContent=${o.gtContent} clp=${o.clp}")
      assert(o.gtContent > 1000 * o.mmp)
      assert(o.gtContent > 100 * o.sgb)
    }

    test(s"$name: MMP cost equals the schema-graph edge count E1") {
      val out = runs(name)
      assert(out.mmp.opCount == out.sgb.graph.edgeCount)
    }

    test(s"$name: SGB comparisons stay near the all-pairs schema cost") {
      // SGB trades some extra comparisons for clustering; it must stay within
      // a small multiple of C(N,2) (paper: same order of magnitude).
      val o = OpCountExperiment.compute(runs(name))
      assert(o.sgb < 3 * o.gtSchema + 1000, s"sgb=${o.sgb} gtSchema=${o.gtSchema}")
    }
  }
}
