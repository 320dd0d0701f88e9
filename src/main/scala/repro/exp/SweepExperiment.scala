package repro.exp

import repro.core.CLPConfig

/** Table 6: CLP parameter selection — incorrect edges remaining after CLP
  * for s ∈ {1,4,8} columns × t ∈ {5,10,30} rows (paper: 42 TB enterprise
  * dataset). Expected shape: strong improvement from s=1 to s=4, diminishing
  * returns beyond; mild improvement with t.
  */
object SweepExperiment {

  val sValues: Seq[Int] = Seq(1, 4, 8)
  val tValues: Seq[Int] = Seq(5, 10, 30)

  final case class Result(incorrect: Map[(Int, Int), Int])

  def run(out: PipelineOutput): Result = {
    val cells = for (s <- sValues; t <- tValues) yield {
      val (_, eval) = out.rerunCLP(CLPConfig(s = s, t = t))
      (s, t) -> eval.incorrect
    }
    Result(cells.toMap)
  }

  def render(r: Result): String = {
    val rows = sValues.flatMap { s =>
      Seq(
        Seq(s"s=$s", "ours") ++ tValues.map(t => r.incorrect((s, t))),
        Seq(s"s=$s", "paper") ++ tValues.map(t => PaperNumbers.table6((s, t))),
      )
    }
    TextTable.section(
      "Table 6 — incorrect edges remaining after CLP, by (s, t)",
      TextTable.format(Seq("s", "Source") ++ tValues.map(t => s"t=$t"), rows),
    )
  }
}
