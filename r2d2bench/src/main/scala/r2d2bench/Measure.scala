package r2d2bench

import java.io.File

import org.apache.spark.sql.SparkSession

import repro.core.{R2D2State, TableData}

/** What the measured section of a run found. */
final case class Measured(
    correct: Boolean,
    attempted: Long,
    failed: Long,
    pipelineS: Double,
    savingPct: Double,
    heapMb: Double,
    layers: Seq[(String, Metric)],
    spans: Json.Obj,
    gate: Seq[(String, Any)],
    notes: Seq[String],
)

/** The measured section of a run on a lake already on disk.
  *
  * Untraced: after [[Main.WarmPasses]] untimed passes, batch passes from the
  * parquet lake to a deletion plan, at least [[Main.MinPasses]] and until
  * `--seconds` are used; `pipeline_s` is their median. Traced: the same
  * untimed passes and [[Main.MinPasses]] untraced passes, then one traced
  * pass and one traced §7.1 update sequence from the last pass's state.
  * Ground truth is ready before the first timer starts, and every
  * operation's input before the update sequence starts.
  */
final class Measure(spark: SparkSession, w: Workload, a: Main.Args, lake: DiskLake, fp: Map[String, String], key: String) {

  private def truth(suffix: String)(compute: => Truth): (Truth, Boolean, String) =
    Gate.cached(new File(s"$key-$suffix.tsv"), fp)(compute) match {
      case Right(t)  => (t, true, s"${t.edges.size} true edges")
      case Left(err) => (Truth(fp, Set.empty), false, err)
    }

  /** A batch pass fails on any missed edge or unsafe plan structure. */
  private def passFailed(v: Verdict) = v.missed > 0 || !v.planSafe

  def run(): Measured = {
    val (ops, finalLake) = Updates.plan(lake.names, w.updateOps, a.structureSeed)
    val in = new Updates.Inputs(spark, lake)
    val tables = scala.collection.mutable.Map.empty[(String, Boolean), TableData]
    def table(n: String, shrunk: Boolean) = n -> tables.getOrElseUpdate((n, shrunk), Gate.table(n, in(n, shrunk)))
    val (lakeTruth, lakeTruthOk, lakeNote) = truth("lake")(Gate.truth(lake.names.map(table(_, false)), fp))
    // Drop the inputs, so that every pass reads the lake from parquet (a
    // cached copy would serve the same reads) and `driver_heap_mb` counts the
    // program's memory, not the benchmark's. The traced update sequence
    // materializes its inputs again after the traced pass.
    tables.clear()
    in.release()

    // The JIT keeps improving the driver's code for the first passes; these
    // are checked like the rest but not timed.
    val warm = (1 to w.warmPasses).map { _ =>
      val (res, _, _) = Pipeline.pass(spark, lake)
      Gate.check(res.graph, res.plan, lakeTruth)
    }
    val t0 = System.nanoTime()
    val passes = scala.collection.mutable.ArrayBuffer.empty[(Double, PassResult, Verdict)]
    var start: R2D2State = null
    while (passes.size < w.minPasses || (!a.trace && (System.nanoTime() - t0) / 1e9 < a.seconds)) {
      val ((res, run, dfs), s) = Clock.timed(Pipeline.pass(spark, lake))
      passes += ((s, res, Gate.check(res.graph, res.plan, lakeTruth)))
      start = R2D2State.fromRun(dfs.toMap, run)
      Main.log(f"pass ${passes.size}: $s%.3f s, ${res.graph.edgeCount} edges, ${passes.last._3}")
    }
    val heapMb = Main.heapAfterGcMb()
    val passS = Clock.median(passes.map(_._1).toSeq)
    val (_, lastPass, lastVerdict) = passes.last
    val traced = if (a.trace) Some(new Traced(passS, start, ops, finalLake, in, table, lakeTruth)) else None
    tables.clear()
    in.release()

    val verdicts = warm ++ passes.map(_._3) ++ traced.map(_.passVerdict)
    val failed = verdicts.count(passFailed) + traced.map(t => t.failedOps + (if (t.mirrorsProgram) 0 else 1)).getOrElse(0)
    val v = traced.map(_.passVerdict).getOrElse(lastVerdict)
    Measured(
      correct = lakeTruthOk && failed == 0 && traced.forall(_.ok),
      attempted = verdicts.size + traced.map(_.timed.size).getOrElse(0),
      failed = failed,
      pipelineS = passS,
      savingPct = Pipeline.savingPct(lastPass.problem, lastPass.plan),
      heapMb = heapMb,
      layers = traced.toSeq.flatMap(_.layers) ++ Seq(
        "gate.missed_edges" -> Metric(v.missed, "count"),
        "gate.incorrect_edges" -> Metric(v.incorrect, "count"),
        "gate.unsafe_deletions" -> Metric(v.unsafe, "count"),
      ),
      spans = traced.map(_.tracer.json).getOrElse(Json.obj()),
      gate = Seq(
        "ground_truth" -> lakeNote,
        "missed_edges" -> verdicts.map(_.missed).max,
        "incorrect_edges" -> v.incorrect,
        "unsafe_deletions" -> v.unsafe,
        "plan_violations" -> verdicts.flatMap(_.planViolations).distinct,
      ) ++ traced.toSeq.flatMap(_.gate),
      notes = Seq(
        f"pipeline_s: median of ${passes.size} passes (${passes.map(p => f"${p._1}%.3f").mkString(" ")})",
        f"plan saving: ${Pipeline.savingPct(lastPass.problem, lastPass.plan)}%.3f%% of the retain-all cost (Eq. 3)",
      ) ++ traced.toSeq.flatMap(_.notes),
    )
  }

  /** The traced part of a run: one traced pass, then one traced update
    * sequence from `start`, checked against the final lake's ground truth.
    */
  private final class Traced(
      untracedPassS: Double,
      start: R2D2State,
      ops: Seq[Op],
      finalLake: Map[String, Boolean],
      in: Updates.Inputs,
      table: (String, Boolean) => (String, TableData),
      lakeTruth: Truth,
  ) {
    val tracer = new Tracer(spark.sparkContext)
    private val counters = new Counters
    private val (res, passS) = Clock.timed(Pipeline.tracedPass(spark, lake, tracer, counters))

    // No span is open here, so this work is credited to no layer.
    private val (updTruth, updTruthOk, updNote) =
      truth("updates")(Gate.truth(finalLake.toSeq.sorted.map { case (n, s) => table(n, s) }, fp))
    ops.flatMap(Updates.input).foreach { case (n, s) => in(n, s) }
    private val (finalState, ts) = tracer.span("updates")(Updates.execute(Updates.fork(start), ops, in, Some(tracer)))
    tracer.finish()

    val passVerdict: Verdict = Gate.check(res.graph, res.plan, lakeTruth)
    // The traced pass calls the layers itself; its figures describe the
    // program only while it finds what `R2D2.run` found.
    val mirrorsProgram: Boolean = res.graph == start.graph && res.catalog.names == start.catalog.names &&
      res.catalog.names.forall(n => res.catalog(n) == start.catalog(n))
    val timed: Seq[Updates.Timed] = ts
    val failedOps: Int = ts.count(_.failed)
    private val updVerdict = {
      val (_, plan) = Pipeline.optimize(finalState.graph, finalState.catalog, lake.provenance)
      Gate.check(finalState.graph, plan, updTruth)
    }
    // §7.1 recall is reported, not gated: the update path may lose edges.
    val ok: Boolean = updTruthOk && updVerdict.planSafe && mirrorsProgram

    private val (tailPct, tailMs) = Updates.tail(ts.map(_.ms))
    val layers: Seq[(String, Metric)] = Layers(tracer, counters, ts, 100.0 * (passS - untracedPassS) / untracedPassS) ++ Seq(
      "dyn.p50_ms" -> Metric(Clock.median(ts.map(_.ms)), "ms"),
      "dyn.tail_ms" -> Metric(tailMs, "ms"),
      "dyn.tail_pct" -> Metric(tailPct, "%"),
      "gate.update_missed_edges" -> Metric(updVerdict.missed, "count"),
      "gate.update_incorrect_edges" -> Metric(updVerdict.incorrect, "count"),
      "gate.update_unsafe_deletions" -> Metric(updVerdict.unsafe, "count"),
    )
    val gate: Seq[(String, Any)] = Seq(
      "traced_pass_mirrors_program" -> mirrorsProgram,
      "update_ground_truth" -> updNote,
      "update_missed_edges" -> updVerdict.missed,
      "update_incorrect_edges" -> updVerdict.incorrect,
      "update_unsafe_deletions" -> updVerdict.unsafe,
      "update_plan_violations" -> updVerdict.planViolations,
      "failed_operations" -> failedOps,
    )
    private val kinds = ops.groupBy(_.kind).map { case (k, xs) => s"$k=${xs.size}" }.toSeq.sorted.mkString(" ")
    val notes: Seq[String] = Seq(
      s"update sequence: ${ops.size} operations ($kinds)",
      f"dyn.tail_ms: p$tailPct%.1f of ${ops.size} operations (10 slower ones beyond it)",
    )
  }
}
