package r2d2bench

/** Per-layer metrics of a traced run, named `<layer>.<metric>`. */
object Layers {

  def apply(tr: Tracer, counters: Counters, ops: Seq[Updates.Timed], overheadPct: Double): Seq[(String, Metric)] = {
    def one(name: String): Span = tr.named(name).head
    val cores = Session.cores.toDouble
    val c = counters.values
    def count(k: String) = k -> Metric(c(k), "count")
    def ratio(k: String) = k -> Metric(c(k), "ratio")
    val (read, stats, sgb, mmp, clp, opt) = (one("read"), one("stats"), one("sgb"), one("mmp"), one("clp"), one("optret"))

    val opSpans = tr.all.filter(_.name.startsWith("dyn."))
    def p50(kind: String): Metric = {
      val xs = opSpans.filter(_.name == s"dyn.$kind").map(_.wallS * 1000)
      Metric(if (xs.isEmpty) 0.0 else Clock.median(xs), "ms")
    }
    def total(f: Span => Long): Long = tr.all.map(f).sum

    Seq(
      "read.wall_ms" -> Metric(read.wallS * 1000, "ms"),
      "read.jobs" -> Metric(read.jobs, "count"),
      "stats.wall_s" -> Metric(stats.wallS, "s"),
      "stats.jobs" -> Metric(stats.jobs, "count"),
      "stats.tasks" -> Metric(stats.tasks, "count"),
      "stats.task_s" -> Metric(stats.taskNs / 1e9, "s"),
      "stats.input_rows" -> Metric(stats.scanRows, "count"),
      "stats.input_mb" -> Metric(stats.inputBytes / 1048576.0, "MB"),
      "sgb.wall_ms" -> Metric(sgb.wallS * 1000, "ms"),
      "sgb.jobs" -> Metric(sgb.jobs, "count"),
      count("sgb.center_checks"), count("sgb.pair_checks"), count("sgb.clusters"), count("sgb.edges"),
      "mmp.wall_ms" -> Metric(mmp.wallS * 1000, "ms"),
      "mmp.jobs" -> Metric(mmp.jobs, "count"),
      count("mmp.ops"), count("mmp.pruned"), ratio("mmp.prune_ratio"),
      "clp.wall_s" -> Metric(clp.wallS, "s"),
      "clp.jobs" -> Metric(clp.jobs, "count"),
      "clp.tasks" -> Metric(clp.tasks, "count"),
      "clp.task_s" -> Metric(clp.taskNs / 1e9, "s"),
      "clp.input_mb" -> Metric(clp.inputBytes / 1048576.0, "MB"),
      "clp.shuffle_mb" -> Metric(clp.shuffleBytes / 1048576.0, "MB"),
      count("clp.edges_in"), count("clp.probes"), count("clp.pruned"), ratio("clp.prune_ratio"),
      "clp.jobs_per_edge" -> Metric(if (c("clp.edges_in") == 0) 0.0 else clp.jobs / c("clp.edges_in"), "ratio"),
      count("clp.children"), count("clp.parents"),
      "clp.busy_frac" -> Metric(clp.taskNs / 1e9 / (clp.wallS * cores), "ratio"),
      "clp.share_pct" -> Metric(100.0 * clp.wallS / Seq(read, stats, sgb, mmp, clp, opt).map(_.wallS).sum, "%"),
      "optret.wall_ms" -> Metric(opt.wallS * 1000, "ms"),
      count("optret.nodes"), count("optret.edges"), count("optret.components"),
      count("optret.largest_component"), count("optret.greedy_components"), count("optret.deleted"),
      "dyn.add_ms" -> p50("add"),
      "dyn.rows_added_ms" -> p50("rows_added"),
      "dyn.rows_removed_ms" -> p50("rows_removed"),
      "dyn.delete_ms" -> p50("delete"),
      "dyn.examined_per_op" -> Metric(if (ops.isEmpty) 0.0 else ops.map(_.examined).sum.toDouble / ops.size, "count"),
      "dyn.jobs_per_op" -> Metric(if (ops.isEmpty) 0.0 else opSpans.map(_.jobs).sum.toDouble / ops.size, "count"),
      "spark.jobs" -> Metric(total(_.jobs), "count"),
      "spark.tasks" -> Metric(total(_.tasks), "count"),
      "trace.overhead_pct" -> Metric(overheadPct, "%"),
    )
  }
}
