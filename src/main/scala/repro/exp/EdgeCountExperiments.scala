package repro.exp

/** Tables 1 & 2: number of correct / incorrect / undetected edges after each
  * R2D2 stage, versus the ground-truth containment graph. Table 1 covers the
  * three enterprise customer lakes; Table 2 the two synthetic corpora.
  */
object EdgeCountExperiments {

  /** The section `title`: paper-vs-measured rows in the layout of Tables 1/2. */
  def render(title: String, paper: Map[String, PaperNumbers.EdgeCounts])(outs: Seq[(String, PipelineOutput)]): String = {
    val rows = outs.flatMap { case (name, out) =>
      val (sgb, mmp, clp) = (out.evalSGB, out.evalMMP, out.evalCLP)
      val p = paper.get(name)
      def pp(f: PaperNumbers.EdgeCounts => Int): String = p.map(f(_).toString).getOrElse("-")
      Seq(
        Seq(name, "Correct (paper)", pp(_.correct), pp(_.correct), pp(_.correct)),
        Seq(name, "Correct (ours)", sgb.correct, mmp.correct, clp.correct),
        Seq(name, "Incorrect<1 (paper)", pp(_.sgbIncorrect), pp(_.mmpIncorrect), pp(_.clpIncorrect)),
        Seq(name, "Incorrect<1 (ours)", sgb.incorrect, mmp.incorrect, clp.incorrect),
        Seq(name, "Not detected (paper)", 0, 0, 0),
        Seq(name, "Not detected (ours)", sgb.notDetected, mmp.notDetected, clp.notDetected),
      )
    }
    TextTable.section(title, TextTable.format(Seq("Data", "Edges", "after SGB", "after MMP", "after CLP"), rows))
  }
}
