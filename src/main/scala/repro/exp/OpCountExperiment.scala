package repro.exp

import repro.core.CLPConfig

/** Table 3: pairwise row-level operations per method.
  *
  * Cost model, as in the paper:
  *  - ground-truth schema: C(N,2) pairwise schema comparisons;
  *  - SGB: N·log N sort + center checks + within-cluster pair checks
  *    (instrumented, the paper's N log N + K(N−K) + Σ C(Kᵢ,2));
  *  - ground-truth content: Σ over schema-graph edges of Mᵢ·Mⱼ row pairs;
  *  - MMP: E₁ metadata operations;
  *  - CLP: Σ over post-MMP edges of M_parent · t sampled-row comparisons.
  */
object OpCountExperiment {

  final case class Ops(gtSchema: Double, sgb: Double, gtContent: Double, mmp: Double, clp: Double)

  def compute(out: PipelineOutput): Ops = {
    val n = out.lake.datasets.size
    val clpOps = out.mmp.graph.edges.toSeq
      .map(e => out.catalog(e.parent).rowCount.toDouble * CLPConfig().t)
      .sum
    Ops(
      gtSchema = out.gtSchemaOps.toDouble,
      sgb = out.sgb.totalOps(n).toDouble,
      gtContent = out.gt.pairwiseOps.toDouble,
      mmp = out.mmp.opCount.toDouble,
      clp = clpOps,
    )
  }

  private def sci(v: Double): String = if (v == 0) "0" else f"$v%.3g"

  def render(outs: Seq[(String, PipelineOutput)]): String = {
    val rows = outs.flatMap { case (name, out) =>
      val o = compute(out)
      val p = PaperNumbers.table3.get(name)
      def pp(f: PaperNumbers.OpCounts => Double): String = p.map(x => sci(f(x))).getOrElse("-")
      Seq(
        Seq(name, "paper", pp(_.gtSchema), pp(_.sgb), pp(_.gtContent), pp(_.mmp), pp(_.clp)),
        Seq(name, "ours", sci(o.gtSchema), sci(o.sgb), sci(o.gtContent), sci(o.mmp), sci(o.clp)),
      )
    }
    TextTable.section(
      "Table 3 — pairwise operations per method",
      TextTable.format(Seq("Data", "Source", "GT schema", "SGB", "GT content", "MMP", "CLP"), rows),
    )
  }
}
