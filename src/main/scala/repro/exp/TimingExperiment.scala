package repro.exp

/** Table 5: wall-clock time per pipeline stage versus brute-force ground
  * truth. Absolute values are at our laptop scale; the paper's shape — GT
  * orders of magnitude slower than the pipeline, SGB ≪ MMP ≪ CLP — is what
  * must hold. Ingest (flattening and column stats) is printed beside the
  * stages, although the paper reports none and the total leaves it out.
  */
object TimingExperiment {

  private def ms(v: Long): String = if (v >= 10000) f"${v / 1000.0}%.2f s" else s"$v ms"

  def render(outs: Seq[(String, PipelineOutput)]): String = {
    val rows = outs.flatMap { case (name, out) =>
      val t = out.timings
      val p = PaperNumbers.table5.get(name)
      def pp(f: PaperNumbers.StageTimes => String): String = p.map(f).getOrElse("-")
      Seq(
        Seq(name, "paper", pp(_.gt), "-", pp(_.sgb), pp(_.mmp), pp(_.clp), pp(_.total)),
        Seq(name, "ours", ms(out.gtMs), ms(t.ingestMs), ms(t.sgbMs), ms(t.mmpMs), ms(t.clpMs), ms(t.pipelineMs)),
      )
    }
    TextTable.section(
      "Table 5 — time per stage (paper at TB scale, ours at MB scale)",
      TextTable.format(Seq("Data", "Source", "Ground Truth", "Ingest", "SGB", "MMP", "CLP", "Total (pipeline)"), rows),
    )
  }
}
