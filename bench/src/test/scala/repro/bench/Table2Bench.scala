package repro.bench

import repro.exp._

/** Table 2 — synthetic data: edge counts per stage on the Table-Union-like
  * (~300 small tables) and Kaggle-like (~140 larger tables) lakes.
  */
class Table2Bench extends BenchSpec {

  lazy val outs: Map[String, PipelineOutput] = PaperTables(2).lakes.map(n => n -> runs(n)).toMap

  test("print Table 2 (paper vs measured)") {
    report(PaperTables(2)(runs))
  }

  test("tableUnion lake has ~300 tables, kaggle ~140 (paper corpus sizes)") {
    assert(outs("tableUnion").lake.datasets.size >= 250)
    assert(math.abs(outs("kaggle").lake.datasets.size - 140) <= 20)
  }

  for (name <- PaperTables(2).lakes) {
    test(s"$name: zero undetected edges at every stage") {
      val out = outs(name)
      assert(out.evalSGB.notDetected == 0)
      assert(out.evalMMP.notDetected == 0)
      assert(out.evalCLP.notDetected == 0)
    }

    test(s"$name: substantial correct containment exists (paper: O(1000) edges)") {
      assert(outs(name).gt.graph.edges.size > 50)
    }

    test(s"$name: monotone incorrect-edge reduction with a large CLP cut") {
      val out = outs(name)
      val (s, m, c) = (out.evalSGB.incorrect, out.evalMMP.incorrect, out.evalCLP.incorrect)
      assert(s > 0 && m < s, s"SGB=$s MMP=$m")
      assert(c <= (0.8 * m).toInt + 1, s"MMP=$m CLP=$c")
    }
  }
}
