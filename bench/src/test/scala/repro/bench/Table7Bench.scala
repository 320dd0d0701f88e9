package repro.bench

import repro.exp._

/** Table 7 — optimization on the detected containment graphs of customers 1
  * and 2: nodes/edges deleted and retained plus monthly GDPR row-scan
  * savings. Paper shape: a meaningful minority of datasets is deleted, each
  * with exactly one retention (reconstruction) edge, and customer 1 (denser
  * graph) yields more deletions than customer 2.
  */
class Table7Bench extends BenchSpec {

  lazy val results: Seq[OptimizationExperiment.Result] =
    PaperTables(7).lakes.map(n => OptimizationExperiment.run(n, runs(n)))

  test("print Table 7 (paper vs measured)") {
    report(OptimizationExperiment.render(results))
  }

  for (name <- PaperTables(7).lakes) {
    lazy val r = results.find(_.name == name).get

    test(s"$name: some contained datasets are deleted, each with a retained reconstruction parent") {
      assert(r.deletedNodes > 0, "expected deletions on a redundant lake")
      r.solution.reconstructVia.foreach { case (child, e) =>
        assert(r.solution.retained(e.parent), s"$child reconstructed from deleted parent")
      }
    }

    test(s"$name: one retention edge per deleted dataset (as in the paper)") {
      assert(r.retentionEdges == r.deletedNodes)
    }

    test(s"$name: positive GDPR savings proportional to deleted rows") {
      assert(r.gdprRowScansSavedPerMonth > 0)
    }

    test(s"$name: deleting is never a net loss versus retaining everything") {
      val p = r.problem
      val allRetained = p.nodes.map(p.retentionCost).sum
      assert(r.solution.cost <= allRetained + 1e-9)
    }
  }

  test("customer1 (denser containment) deletes at least as large a fraction as customer2") {
    val byName = results.map(r => r.name -> r).toMap
    def fraction(r: OptimizationExperiment.Result): Double =
      r.deletedNodes.toDouble / (r.deletedNodes + r.retainedNodes)
    assert(fraction(byName("customer1")) >= fraction(byName("customer2")) - 0.05,
      s"c1=${fraction(byName("customer1"))} c2=${fraction(byName("customer2"))}")
  }
}
