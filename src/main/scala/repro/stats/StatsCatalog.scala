package repro.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.core.SchemaSet
import repro.util.Jobs

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
  * them from its footers ([[ParquetStats.of]]), with no Spark job; any other
  * frame (filtered, unioned, derived or in memory) gets them from one
  * aggregation over its rows ([[StatsCatalog.compute]]). Either way each
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

  /** §4.1 step 1 for one dataset: flatten `df` once, take the flattened
    * frame's stats (from its parquet footers when they are exact, else with
    * one aggregation) and register them under `name`. Returns the flattened
    * frame, which every later stage reads. Safe to call from several threads.
    */
  def ingest(name: String, df: DataFrame): DataFrame = {
    val flat = StatsCatalog.flatten(df)
    put(name, ParquetStats.of(flat).getOrElse(StatsCatalog.aggregate(flat)))
    flat
  }

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

  /** One-pass min/max/count over every orderable scalar leaf of `df`; its
    * Spark jobs are described `stats: compute`.
    */
  def compute(df: DataFrame): DatasetStats = aggregate(flatten(df))

  /** [[compute]] for a frame that [[flatten]] returned. Its one result row
    * is read as Catalyst's internal values: the row count, then each stats
    * column's min and max.
    */
  private def aggregate(flat: DataFrame): DatasetStats = {
    val fields = flat.schema.fields.toSeq.filter(f => hasStats(f.dataType))
    val aggs = count(lit(1)) +: fields.flatMap(f => Seq(min(SchemaSet.qcol(f.name)), max(SchemaSet.qcol(f.name))))
    val plan = flat.agg(aggs.head, aggs.tail: _*).queryExecution
    val row = Jobs.described(flat.sparkSession, "stats: compute")(plan.toRdd.map(_.copy()).collect()(0))
    val rowCount = row.getLong(0)
    val cols = fields.zipWithIndex.collect {
      case (f, i) if !row.isNullAt(2 * i + 1) =>
        f.name -> colStats(f.dataType, row.get(2 * i + 1, f.dataType), row.get(2 * i + 2, f.dataType))
    }.toMap
    DatasetStats(rowCount, rowCount * flat.schema.defaultSize, cols)
  }
}
