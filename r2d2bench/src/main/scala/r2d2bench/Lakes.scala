package r2d2bench

import java.io.File

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DateType, DoubleType, IntegerType, LongType, StringType}

import repro.exp.Profiles
import repro.lake.{Lake, LakeGenerator, LakeProfile}
import repro.stats.StatsCatalog

import scala.util.hashing.MurmurHash3

/** A lake as the program receives it: parquet datasets on disk, plus the
  * generator's provenance, which plays the paper's §5.1 "known
  * transformation" input to pre-processing.
  */
final case class DiskLake(dir: String, names: Seq[String], provenance: Seq[(String, String)]) {
  def read(spark: SparkSession, name: String): DataFrame = spark.read.parquet(s"$dir/$name")
  def readAll(spark: SparkSession): Seq[(String, DataFrame)] = names.map(n => n -> read(spark, n))
}

object Lakes {

  /** Generate `profile`, re-encode its values with `valueSeed` and write
    * every dataset as one parquet file under `dir`. Returns the disk lake and
    * the generate and write wall times.
    */
  def build(spark: SparkSession, profile: LakeProfile, valueSeed: Long, dir: String): (DiskLake, Double, Double) = {
    deleteRecursively(new File(dir))
    val (lake, genS) = Clock.timed(LakeGenerator.generate(spark, profile))
    val (_, writeS) = Clock.timed(write(lake, valueSeed, dir))
    lake.unpersist()
    (DiskLake(dir, lake.datasets.map(_.name), lake.provenance), genS, writeS)
  }

  private def write(lake: Lake, valueSeed: Long, dir: String): Unit =
    lake.datasets.foreach(d => reencode(d.df, valueSeed).coalesce(1).write.parquet(s"$dir/${d.name}"))

  /** Map every value through a per-column bijection that keeps equality and
    * order: integers, doubles and dates shift by an offset drawn from
    * (seed, column), strings get a seed prefix. Containment and min/max
    * relations between datasets are unchanged, so each seed gives a lake of
    * the same shape holding other values.
    */
  def reencode(df: DataFrame, seed: Long): DataFrame = df.select(df.schema.fields.toSeq.map { f =>
    val c = col(s"`${f.name}`")
    val off = 1 + math.floorMod(MurmurHash3.stringHash(f.name, seed.hashCode), 997)
    val v = f.dataType match {
      case IntegerType | LongType => (c + lit(off)).cast(f.dataType)
      case DoubleType             => c + lit(off.toDouble)
      case DateType               => date_add(c, off)
      case StringType             => concat(lit(s"v$seed-"), c)
      case _                      => c
    }
    v.as(f.name)
  }: _*)

  /** Per dataset: row count and an order-independent content hash of the
    * flattened rows. Equal fingerprints mean equal multisets of rows.
    */
  def fingerprint(spark: SparkSession, lake: DiskLake): Map[String, String] =
    lake.names.map { n =>
      val flat = StatsCatalog.flatten(lake.read(spark, n))
      val h = xxhash64(flat.columns.toSeq.map(c => col(s"`$c`")): _*)
      val r = flat.agg(count(lit(1)), sum(pmod(h, lit(1000000007L))), sum(pmod(h, lit(998244353L)))).collect()(0)
      n -> s"${r.getLong(0)}:${Option(r.get(1)).getOrElse(0)}:${Option(r.get(2)).getOrElse(0)}"
    }.toMap

  def diskMb(dir: String): Double = {
    def size(f: File): Long = if (f.isDirectory) Option(f.listFiles()).toSeq.flatten.map(size).sum else f.length
    size(new File(dir)) / 1048576.0
  }

  def deleteRecursively(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).toSeq.flatten.foreach(deleteRecursively)
    f.delete()
  }

  /** The untimed warm-up lake: the `customer` family of `Profiles.tiny`
    * (root, a filter, a projection and an in-range noise child).
    */
  def warmupProfile: LakeProfile = {
    val tiny = Profiles.tiny()
    tiny.copy(name = "warmup", families = tiny.families.drop(1))
  }
}

object Clock {
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
