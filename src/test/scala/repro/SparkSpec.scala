package repro

import java.nio.file.Files
import java.util.concurrent.ConcurrentLinkedQueue

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM when it is set, else from physical memory (half of it,
  * clamped to 2–8 GB). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Write `df` as `parts` parquet files into a fresh temporary directory;
    * timestamps are stored as annotated INT64 micros, whose footers carry
    * statistics (Spark's default, INT96, has none). Returns the directory.
    */
  def parquetDir(df: DataFrame, parts: Int = 1): String = {
    val dir = Files.createTempDirectory("parquet").toFile
    dir.deleteOnExit()
    val path = s"${dir.getAbsolutePath}/t"
    val key = "spark.sql.parquet.outputTimestampType"
    val old = spark.conf.getOption(key)
    spark.conf.set(key, "TIMESTAMP_MICROS")
    try df.repartition(parts).write.parquet(path)
    finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    path
  }

  /** Runs `body` and returns its result with the description of every Spark
    * job started meanwhile, from any thread, in start order ("null" where
    * none was set). Listener events arrive in order: once a sentinel job run
    * after `body` is seen, so is every job of `body`.
    */
  def jobDescriptions[A](body: => A): (A, Seq[String]) = {
    val sc = spark.sparkContext
    val jobs = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add(String.valueOf(Option(e.properties).map(_.getProperty("spark.job.description")).orNull))
    }
    val sentinel = "sentinel"
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.setJobDescription(sentinel)
      spark.range(1).collect()
      val deadline = System.nanoTime() + 30000000000L
      while (!jobs.contains(sentinel) && System.nanoTime() < deadline) Thread.sleep(20)
      assert(jobs.contains(sentinel))
      (result, jobs.asScala.toSeq.takeWhile(_ != sentinel))
    } finally {
      sc.setJobDescription(null)
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells which heap setting, master and
    // parallelism the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
