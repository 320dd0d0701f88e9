package r2d2bench

import org.apache.spark.sql.SparkSession

/** The Spark session every run uses, with its settings pinned: CLP's
  * verdicts depend on partitioning, so these must not drift between runs.
  */
object Session {

  /** `local[k]`, k = min(4, available cores). */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  /** Shuffle partitions and broadcast setting as in the program's job
    * entry points (`JobSession`).
    */
  val ShufflePartitions = 16

  def create(out: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("r2d2bench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$out/spark-local")
      .config("spark.sql.warehouse.dir", s"$out/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def settings(spark: SparkSession): Json.Obj = {
    val conf = spark.conf
    val clp = Pipeline.clpCfg
    Json.obj(
      "master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "clp.s" -> clp.s, "clp.t" -> clp.t, "clp.seed" -> clp.seed,
      "clp.pivotCandidates" -> clp.pivotCandidates, "clp.parallelism" -> clp.parallelism,
      "spark.version" -> spark.version,
    )
  }
}
