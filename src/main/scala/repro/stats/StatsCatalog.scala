package repro.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.util.TypeUtils
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.core.SchemaSet
import repro.util.{Jobs, Par}

/** Per-column min/max statistics, the information MMP consumes.
  *
  * Orderable non-string types (numerics, dates, timestamps, booleans) are
  * kept as Double, built by [[StatsCatalog.colStats]]: dates as epoch days,
  * timestamps as epoch millis, booleans as 0/1.
  */
sealed trait ColStats
final case class NumStats(min: Double, max: Double) extends ColStats
final case class StrStats(min: String, max: String) extends ColStats

object StrStats {
  /** Spark's string order, unsigned UTF-8 bytes: the order of Spark's
    * `min`/`max` and of parquet footers. Scala's `String` order (UTF-16 code
    * units) differs from it on characters outside the BMP.
    */
  val order: Ordering[String] = (a, b) => UTF8String.fromString(a).binaryCompare(UTF8String.fromString(b))
}

/** Statistics for one dataset: row count, size estimate and column stats
  * keyed by flattened column token.
  */
final case class DatasetStats(rowCount: Long, sizeBytes: Long, cols: Map[String, ColStats])

/** Builds and caches dataset statistics.
  *
  * In the paper, MMP reads columnar min/max from parquet partition metadata
  * (or a cache of it) so that no table scan is needed at pruning time. This
  * catalog is that substrate: stats are taken once at ingestion time and
  * thereafter served from memory. A frame read straight from parquet gets
  * them from its footers ([[ParquetStats.of]]), with no Spark job; every
  * other frame (filtered, unioned, derived or in memory) gets them from one
  * pass over its rows ([[StatsCatalog.scan]]), and one ingest call runs a
  * single such pass, one Spark job, for all its datasets. Either way each
  * column's min and max arrive as Catalyst's internal values and become
  * its stats through [[StatsCatalog.colStats]], so no session setting
  * (such as `spark.sql.datetime.java8API.enabled`) moves them.
  */
final class StatsCatalog {
  private val cache = scala.collection.concurrent.TrieMap.empty[String, DatasetStats]

  def put(name: String, stats: DatasetStats): Unit = cache(name) = stats
  def apply(name: String): DatasetStats =
    cache.getOrElse(name, throw new NoSuchElementException(s"no stats for dataset '$name'"))
  def get(name: String): Option[DatasetStats] = cache.get(name)
  def names: Set[String] = cache.keySet.toSet

  /** §4.1 step 1: flatten each dataset once, take each flattened frame's
    * stats and register them under the dataset's name. A frame whose parquet
    * footers give exact stats takes them from there, concurrently over
    * [[Par]] and with no Spark job; all the others share one [[StatsCatalog.scan]],
    * one Spark job. Returns the flattened frames in input order; every later
    * stage reads them. Safe to call from several threads.
    */
  def ingest(datasets: Seq[(String, DataFrame)]): Seq[(String, DataFrame)] = {
    val flat = Par.map(datasets) { case (n, df) =>
      val f = StatsCatalog.flatten(df)
      (n, f, ParquetStats.of(f))
    }
    for ((n, _, Some(s)) <- flat) put(n, s)
    val (names, rest) = flat.collect { case (n, f, None) => n -> f }.unzip
    names.zip(StatsCatalog.scan(rest)).foreach { case (n, s) => put(n, s) }
    flat.map { case (n, f, _) => n -> f }
  }

  /** [[ingest]] of one dataset; returns its flattened frame. */
  def ingest(name: String, df: DataFrame): DataFrame = ingest(Seq(name -> df)).head._2

  def remove(name: String): Unit = cache.remove(name)

  /** A catalog holding the same stats; writing to either leaves the other as it is. */
  def copy(): StatsCatalog = {
    val c = new StatsCatalog
    c.cache ++= cache
    c
  }
}

object StatsCatalog {

  /** Project a (possibly nested) DataFrame to a flat one whose column names
    * are the flattened schema tokens (`product.price` etc.), through the one
    * flattener, [[SchemaSet.leaves]].
    */
  def flatten(df: DataFrame): DataFrame =
    df.select(SchemaSet.leaves(df.schema).map { case (tok, c) => c.as(tok) }: _*)

  /** The Spark types the catalog keeps min/max for: numerics, dates,
    * timestamps, booleans and strings in Spark's binary collation.
    */
  private[stats] def hasStats(dt: DataType): Boolean = dt match {
    case _: NumericType | DateType | TimestampType | BooleanType | StringType => true
    case _ => false
  }

  /** The stats of a column of type `dt` from its min and max as Catalyst's
    * internal values, which both stats paths pass: strings keep their text,
    * dates (epoch days) and other numbers become their double, timestamps
    * (micros) floor to epoch millis, decimals go through
    * `java.math.BigDecimal` and booleans become 0/1.
    */
  private[stats] def colStats(dt: DataType, min: Any, max: Any): ColStats = {
    def num(v: Any): Double = (dt, v) match {
      case (TimestampType, micros: Long) => Math.floorDiv(micros, 1000L).toDouble
      case (_, d: Decimal)               => d.toJavaBigDecimal.doubleValue
      case (_, b: Boolean)               => if (b) 1.0 else 0.0
      case (_, n: Number)                => n.doubleValue
      case _ => throw new IllegalArgumentException(s"no stats for $dt value $v")
    }
    if (dt == StringType) StrStats(min.toString, max.toString) else NumStats(num(min), num(max))
  }

  /** The stats of each of `flats`, flat frames such as [[flatten]] returns,
    * from one Spark job described `stats: compute`, however many frames there
    * are. Each frame is planned once (`queryExecution.toRdd`), concurrently
    * over [[Par]]; the job runs over the union of the plans. Each partition
    * keeps a row count and each stats column's least and greatest non-null
    * value as Catalyst's internal values, in the order Spark's `min` and
    * `max` use (`TypeUtils.getInterpretedOrdering`: NaN above every other
    * double, strings by unsigned UTF-8 bytes). The driver merges the
    * partitions' values and turns them into stats through [[colStats]].
    * A cached frame whose cache is not yet built gets it built by this job.
    */
  def scan(flats: Seq[DataFrame]): Seq[DatasetStats] = if (flats.isEmpty) Seq.empty else {
    val cols = flats.map(_.schema.fields.toSeq.zipWithIndex.filter(c => hasStats(c._1.dataType)))
    val types = cols.map(_.map(_._1.dataType).toArray)
    val parts = Jobs.described(flats.head.sparkSession, "stats: compute") {
      Jobs.collectAll(Par.map(flats.indices) { g =>
        val (ordinals, ts) = (cols(g).map(_._2).toArray, types(g))
        flats(g).queryExecution.toRdd.mapPartitions { rows =>
          val e = new Extremes(ts)
          rows.foreach(e.add(_, ordinals))
          Iterator(g -> e)
        }
      })
    }
    val merged = parts.groupMapReduce(_._1)(_._2)(_ merge _)
    flats.indices.map { g =>
      val e = merged.getOrElse(g, new Extremes(types(g)))
      val stats = cols(g).map(_._1).zipWithIndex.collect {
        case (f, k) if e.min(k) != null => f.name -> colStats(f.dataType, e.min(k), e.max(k))
      }
      DatasetStats(e.rows, e.rows * flats(g).schema.defaultSize, stats.toMap)
    }
  }

  /** A row count and, per column of `types`, the least and greatest non-null
    * value seen, as Catalyst's internal values (null while none was).
    * Values are compared under the column type's interpreted ordering; on a
    * tie the value already kept stays. A kept string is copied, since the
    * row it came from may be reused for the next one.
    */
  private final class Extremes(types: Array[DataType]) extends Serializable {
    var rows = 0L
    val min = new Array[Any](types.length)
    val max = new Array[Any](types.length)
    @transient private lazy val orders = types.map(TypeUtils.getInterpretedOrdering)

    /** Counts `r` and takes in its values at `ordinals`, one per column. */
    def add(r: InternalRow, ordinals: Array[Int]): Unit = {
      rows += 1
      var k = 0
      while (k < ordinals.length) {
        if (!r.isNullAt(ordinals(k))) keep(k, r.get(ordinals(k), types(k)))
        k += 1
      }
    }

    def merge(o: Extremes): Extremes = {
      rows += o.rows
      for (k <- types.indices if o.min(k) != null) {
        keep(k, o.min(k))
        keep(k, o.max(k))
      }
      this
    }

    private def keep(k: Int, v: Any): Unit = {
      if (min(k) == null || orders(k).lt(v, min(k))) min(k) = copied(v)
      if (max(k) == null || orders(k).gt(v, max(k))) max(k) = copied(v)
    }

    private def copied(v: Any): Any = v match {
      case s: UTF8String => s.clone()
      case _             => v
    }
  }
}
