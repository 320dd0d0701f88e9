package r2d2bench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import org.apache.spark.sql.SparkSession

import repro.exp.Profiles
import repro.lake.{FamilySpec, LakeProfile}

/** A benchmark workload: the lake profile, the structure seed it is
  * generated with (and a held-out one), and the length of the §7.1 update
  * sequence its traced runs apply.
  *
  * The structure seed fixes the lake's datasets, their derivations and the
  * update sequence; `--seed` re-encodes the lake's values (see
  * [[Lakes.reencode]]). Seeds therefore vary the data but not the amount of
  * work, which at these lake sizes would otherwise swing with the seed by
  * more than any bound worth setting. Claims must also hold with the
  * held-out structure seed (`--structure-seed`).
  */
final case class Workload(name: String, profile: Long => LakeProfile, structureSeed: Long, heldOutStructureSeed: Long,
    updateOps: Int, quick: Boolean = false) {
  def setupReps: Int = if (quick) 1 else Main.SetupReps
  def warmPasses: Int = if (quick) 0 else Main.WarmPasses
  def minPasses: Int = if (quick) 1 else Main.MinPasses
}

object Workloads {

  /** One family of `p`, trimmed to the given derived-table counts. */
  private def family(p: LakeProfile, trim: FamilySpec => FamilySpec): LakeProfile =
    p.copy(families = p.families.take(1).map(trim))

  val all: Seq[Workload] = Seq(
    // Row-heavy lake: a customer2 family, scale 2.5. CLP's job overhead
    // dominates, but stats and CLP scan about 50x the rows of batch-dense.
    Workload("batch-sparse", s => family(Profiles.customer2(2.5, s),
      _.copy(filters = 1, projections = 1, addRows = 0, addCols = 1, noiseIn = 0, noiseOut = 1, chainLen = 0)),
      structureSeed = 102, heldOutStructureSeed = 1102, updateOps = 24),
    // Small lake with a denser schema graph: a customer1 family, scale 0.25.
    // CLP's job overhead dominates; SGB, MMP and OPT-RET take under 1 ms.
    Workload("batch-dense", s => family(Profiles.customer1(0.25, s),
      _.copy(filters = 1, projections = 1, addRows = 0, addCols = 0, noiseIn = 1, noiseOut = 0, duplicates = 1, chainLen = 1)),
      structureSeed = 101, heldOutStructureSeed = 1101, updateOps = 24),
  )

  /** Shape check only (`run.py --smoke`): the whole of `Profiles.tiny`, one
    * set-up, one pass, no warm-up.
    */
  val smoke: Workload =
    Workload("smoke", s => Profiles.tiny(s), structureSeed = 7, heldOutStructureSeed = 8, updateOps = 12, quick = true)

  def apply(name: String): Workload =
    (all :+ smoke).find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** One metric as printed: value and unit. */
final case class Metric(value: Double, unit: String)

object Metric {
  def apply(value: Long, unit: String): Metric = Metric(value.toDouble, unit)
}

/** Benchmark entry point; `run.py` builds the classpath and starts it.
  *
  * One run: an untimed warm-up; set-up (generate the lake, write it as
  * parquet) several times; ground truth; then, for `--seconds`, batch passes
  * from the parquet lake to a deletion plan. With `--trace 1` it instead
  * runs a few untraced passes, one traced pass and one traced §7.1 update
  * sequence, and reports per-layer metrics instead of end-to-end ones.
  */
object Main {

  val SetupReps = 3
  val MinPasses = 3
  val WarmPasses = 2

  final case class Args(workload: String, seed: Long, structureSeed: Long, seconds: Int, trace: Boolean, out: String)

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = Workloads(kv("workload"))
    val args = Args(w.name, kv("seed").toLong, kv.get("structure-seed").map(_.toLong).getOrElse(w.structureSeed),
      kv("seconds").toInt, kv("trace") == "1", kv("out"))
    val spark = Session.create(args.out)
    val res =
      try run(spark, w, args)
      finally spark.stop()
    println(res.line)
    sys.exit(if (res.correct) 0 else 1)
  }

  final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)]) {
    def metricsJson: Json.Obj =
      Json.Obj(metrics.map { case (n, m) => n -> Json.obj("value" -> m.value, "unit" -> m.unit) })
    def json: Json.Obj = Json.obj("correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> metricsJson)
    def line: String = Json(json)
  }

  def run(spark: SparkSession, w: Workload, a: Args): Result = {
    val settings = Session.settings(spark)
    log(s"settings: ${Json(settings)}")
    if (!w.quick) warmUp(spark, s"${a.out}/lake/warmup")

    // Set-up, several times: generate the lake and write it as parquet. The
    // median is `setup_s`.
    val lakeDir = s"${a.out}/lake/${w.name}"
    val profile = w.profile(a.structureSeed)
    val setups = (1 to (if (a.trace) 1 else w.setupReps)).map { _ =>
      val ((lake, genS, writeS), s) = Clock.timed(Lakes.build(spark, profile, a.seed, lakeDir))
      Setup(lake, genS, writeS, s)
    }
    val setup = setups.last
    val fp = Lakes.fingerprint(spark, setup.lake)
    log(f"set-up ${setups.map(s => f"${s.setupS}%.2f").mkString(" ")} s")

    val key = f"${a.out}/truth/${w.name}-${a.structureSeed}-${a.seed}-${profile.hashCode}%08x"
    val m = new Measure(spark, w, a, setup.lake, fp, key).run()
    println(s"gate ${Json(Json.Obj(m.gate))}")
    m.notes.foreach(println)

    val metrics: Seq[(String, Metric)] =
      if (!a.trace) Seq(
        "setup_s" -> Metric(Clock.median(setups.map(_.setupS)), "s"),
        "pipeline_s" -> Metric(m.pipelineS, "s"),
        "driver_heap_mb" -> Metric(m.heapMb, "MB"),
      )
      else Seq(
        "lake.datasets" -> Metric(setup.lake.names.size, "count"),
        "lake.rows" -> Metric(fp.values.map(_.split(":")(0).toLong).sum, "count"),
        "lake.disk_mb" -> Metric(Lakes.diskMb(lakeDir), "MB"),
        "lake.generate_s" -> Metric(setup.generateS, "s"),
        "lake.write_s" -> Metric(setup.writeS, "s"),
        "optret.saving_pct" -> Metric(m.savingPct, "%"),
      ) ++ m.layers
    metrics.foreach { case (n, x) => println(f"metric $n%-26s ${x.value}%14.4f ${x.unit}") }

    val result = Result(m.correct, m.attempted, m.failed, metrics)
    val report = new File(s"${a.out}/results/${w.name}-${a.structureSeed}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    report.getParentFile.mkdirs()
    Files.write(report.toPath, Json(Json.obj(
      "workload" -> w.name, "seed" -> a.seed, "structure_seed" -> a.structureSeed,
      "held_out_structure_seed" -> w.heldOutStructureSeed, "seconds" -> a.seconds, "trace" -> a.trace,
      "settings" -> settings, "gate" -> Json.Obj(m.gate), "result" -> result.json, "trace_spans" -> m.spans,
    )).getBytes(UTF_8))
    log(s"report written to $report")
    result
  }

  /** Untimed warm-up on a small lake: set it up and run one pass, so that
    * timing starts with the program's code paths loaded.
    */
  private def warmUp(spark: SparkSession, dir: String): Unit = {
    val (_, s) = Clock.timed(Pipeline.pass(spark, Lakes.build(spark, Lakes.warmupProfile, 1L, dir)._1))
    log(f"warm-up took $s%.2f s")
  }

  /** Driver heap in use after a full collection, in MB. */
  def heapAfterGcMb(): Double = {
    // Spark frees broadcast and shuffle blocks from a cleaner thread once
    // their handles are collected, so collect until that has settled.
    (1 to 4).foreach { _ => System.gc(); Thread.sleep(150) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private val t0 = System.nanoTime()
  def log(s: String): Unit = Console.err.println(f"[r2d2bench ${(System.nanoTime() - t0) / 1e9}%6.1fs] $s")
}

/** One set-up repetition. */
final case class Setup(lake: DiskLake, generateS: Double, writeS: Double, setupS: Double)
