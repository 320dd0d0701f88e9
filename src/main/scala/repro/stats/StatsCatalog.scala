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
  * canonicalized to Double so stats computed by Spark aggregation and stats
  * read from parquet footers compare identically: dates become epoch days,
  * timestamps epoch millis, booleans 0/1.
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
  * aggregation over its rows ([[StatsCatalog.compute]]).
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

  /** The canonical form of a non-string min or max, as Spark's `collect`
    * returns it with or without the `java.time` API: dates become epoch
    * days, timestamps epoch millis (`Timestamp.getTime` and
    * `Instant.toEpochMilli`, which both floor), booleans 0/1.
    */
  private[stats] def canonical(v: Any): Double = v match {
    case d: java.sql.Date         => d.toLocalDate.toEpochDay.toDouble
    case d: java.time.LocalDate   => d.toEpochDay.toDouble
    case t: java.sql.Timestamp    => t.getTime.toDouble
    case t: java.time.Instant     => t.toEpochMilli.toDouble
    case b: Boolean               => if (b) 1.0 else 0.0
    case bd: java.math.BigDecimal => bd.doubleValue
    case n: Number                => n.doubleValue
    case other => throw new IllegalArgumentException(s"non-numeric stat value $other")
  }

  /** One-pass min/max/count over every orderable scalar leaf of `df`; its
    * Spark jobs are described `stats: compute`.
    */
  def compute(df: DataFrame): DatasetStats = aggregate(flatten(df))

  /** [[compute]] for a frame that [[flatten]] returned. */
  private def aggregate(flat: DataFrame): DatasetStats = {
    val aggs = flat.schema.fields.toSeq.flatMap { f =>
      if (hasStats(f.dataType)) Seq(min(SchemaSet.qcol(f.name)).as(s"min::${f.name}"), max(SchemaSet.qcol(f.name)).as(s"max::${f.name}"))
      else Seq.empty
    } :+ count(lit(1)).as("cnt::")

    val row = Jobs.described(flat.sparkSession, "stats: compute")(flat.agg(aggs.head, aggs.tail: _*).collect()(0))
    val byName = row.schema.fieldNames.zipWithIndex.toMap
    val rowCount = row.getLong(byName("cnt::"))

    val cols = flat.schema.fields.toSeq.flatMap { f =>
      val tok = f.name
      (byName.get(s"min::$tok"), byName.get(s"max::$tok")) match {
        case (Some(i), Some(j)) if row.get(i) != null && row.get(j) != null =>
          f.dataType match {
            case StringType => Some(tok -> StrStats(row.getString(i), row.getString(j)))
            case _          => Some(tok -> NumStats(canonical(row.get(i)), canonical(row.get(j))))
          }
        case _ => None
      }
    }.toMap

    DatasetStats(rowCount, rowCount * flat.schema.defaultSize, cols)
  }
}
