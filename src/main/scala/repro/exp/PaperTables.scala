package repro.exp

/** One paper table: the lakes it reads, in the order it prints them, and how
  * it renders their pipeline outputs.
  */
final case class PaperTable(lakes: Seq[String], render: Seq[(String, PipelineOutput)] => String) {
  /** The table's text over `runs`' outputs for its lakes. */
  def apply(runs: RunCache): String = render(lakes.map(n => n -> runs(n)))
}

/** The registry of the paper's Tables 1–7, the one place a table's lake
  * list is written: the `repro.jobs.Tables` entry point and the bench suites
  * both read it.
  */
object PaperTables {
  private val all: IndexedSeq[PaperTable] = IndexedSeq(
    PaperTable(Seq("customer1", "customer2", "customer3"),
      EdgeCountExperiments.render("Table 1 — enterprise edge counts per stage", PaperNumbers.table1)),
    PaperTable(Seq("tableUnion", "kaggle"), EdgeCountExperiments.render("Table 2 — synthetic edge counts per stage", PaperNumbers.table2)),
    PaperTable(Seq("customer2", "customer1", "kaggle", "tableUnion"), OpCountExperiment.render),
    PaperTable(Seq("customer1", "customer2"), outs => BaselineExperiment.render(outs.map { case (n, o) => BaselineExperiment.run(n, o) })),
    PaperTable(Seq("customer1", "customer2", "tableUnion", "kaggle"), TimingExperiment.render),
    PaperTable(Seq("customer2"), outs => SweepExperiment.render(SweepExperiment.run(outs.head._2))),
    PaperTable(Seq("customer1", "customer2"), outs => OptimizationExperiment.render(outs.map { case (n, o) => OptimizationExperiment.run(n, o) })),
  )

  /** The table numbers, 1 to 7. */
  val numbers: Range = 1 to all.size

  /** Table `n`, one of [[numbers]]. */
  def apply(n: Int): PaperTable = all(n - 1)
}
