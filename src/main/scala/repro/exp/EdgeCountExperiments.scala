package repro.exp

/** Tables 1 & 2: number of correct / incorrect / undetected edges after each
  * R2D2 stage, versus the ground-truth containment graph. Table 1 covers the
  * three enterprise customer lakes; Table 2 the two synthetic corpora.
  */
object EdgeCountExperiments {

  final case class DatasetReport(name: String, sgb: StageEval, mmp: StageEval, clp: StageEval)

  def report(name: String, out: PipelineOutput): DatasetReport =
    DatasetReport(name, out.evalSGB, out.evalMMP, out.evalCLP)

  /** Paper-vs-measured rows in the layout of Tables 1/2. */
  def render(reports: Seq[DatasetReport], paper: Map[String, PaperNumbers.EdgeCounts]): String = {
    val rows = reports.flatMap { r =>
      val p = paper.get(r.name)
      def pp(f: PaperNumbers.EdgeCounts => Int): String = p.map(f(_).toString).getOrElse("-")
      Seq(
        Seq(r.name, "Correct (paper)", pp(_.correct), pp(_.correct), pp(_.correct)),
        Seq(r.name, "Correct (ours)", r.sgb.correct, r.mmp.correct, r.clp.correct),
        Seq(r.name, "Incorrect<1 (paper)", pp(_.sgbIncorrect), pp(_.mmpIncorrect), pp(_.clpIncorrect)),
        Seq(r.name, "Incorrect<1 (ours)", r.sgb.incorrect, r.mmp.incorrect, r.clp.incorrect),
        Seq(r.name, "Not detected (paper)", 0, 0, 0),
        Seq(r.name, "Not detected (ours)", r.sgb.notDetected, r.mmp.notDetected, r.clp.notDetected),
      )
    }
    TextTable.format(Seq("Data", "Edges", "after SGB", "after MMP", "after CLP"), rows)
  }

  def table1(outs: Map[String, PipelineOutput]): String = {
    val reports = Seq("customer1", "customer2", "customer3").flatMap(n => outs.get(n).map(report(n, _)))
    TextTable.section("Table 1 — enterprise edge counts per stage", render(reports, PaperNumbers.table1))
  }

  def table2(outs: Map[String, PipelineOutput]): String = {
    val reports = Seq("tableUnion", "kaggle").flatMap(n => outs.get(n).map(report(n, _)))
    TextTable.section("Table 2 — synthetic edge counts per stage", render(reports, PaperNumbers.table2))
  }
}
