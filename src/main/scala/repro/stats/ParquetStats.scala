package repro.stats

import java.net.URI

import org.apache.hadoop.fs.Path
import org.apache.parquet.HadoopReadOptions
import org.apache.parquet.column.statistics.Statistics
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.metadata.ColumnChunkMetaData
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.parquet.io.api.Binary
import org.apache.parquet.schema.LogicalTypeAnnotation._
import org.apache.parquet.schema.PrimitiveType
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName._
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{Alias, AttributeReference, Expression, GetStructField}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Project}
import org.apache.spark.sql.execution.datasources.{DataSourceUtils, HadoopFsRelation, LogicalRelation}
import org.apache.spark.sql.execution.datasources.parquet.{ParquetFileFormat, ParquetOptions}
import org.apache.spark.sql.internal.LegacyBehaviorPolicy
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import scala.jdk.CollectionConverters._

/** Reads per-column min/max and row counts directly from parquet footers.
  *
  * This is the substrate the paper leans on for MMP: "for datasets that are
  * partitioned and stored in parquet format, values such as the columnar
  * minimum and maximum are often stored as metadata" (§4.2). No data pages
  * are read — only footers — so the cost is O(files), not O(rows), and no
  * Spark job runs.
  *
  * Footer stats are used only where they are provably the ones a pass over
  * the rows ([[StatsCatalog.scan]]) would give: the stored min and max go
  * through [[StatsCatalog.colStats]] as the pass's do. A column gets none when
  * any row group that holds a non-null value of it lacks min/max (parquet
  * drops them when a float column holds NaN or a binary value is longer
  * than 4 KiB), or when its stored type does not decode exactly to the
  * column's Spark type.
  */
object ParquetStats {

  /** A flattened column the footers are asked for: its token, the path of
    * its parquet column and its Spark type.
    */
  private final case class Leaf(token: String, path: Seq[String], dataType: DataType)

  /** The stats of `flat`, a frame that [[StatsCatalog.flatten]] returned,
    * from its parquet footers, or `None` when they would not be exact: unless
    * `flat` only projects columns and struct fields out of one unpartitioned
    * parquet relation. A filtered frame's files hold rows the frame does not,
    * so their range is wider than the frame's, and a child range that is too
    * wide can prune a true edge. `sizeBytes` is the catalog's estimate, as
    * [[StatsCatalog.scan]] gives it. [[StatsCatalog.ingest]] calls this
    * for each dataset before it sends the rest to its one Spark job.
    */
  def of(flat: DataFrame): Option[DatasetStats] =
    scan(flat.queryExecution.analyzed).map { case (rel, leaves) =>
      val (rows, cols) = footers(rel, leaves)
      DatasetStats(rows, rows * flat.schema.defaultSize, cols)
    }

  /** The relation and the stats-bearing leaves of a flattened frame's plan,
    * when it projects them straight out of one unpartitioned parquet
    * relation. Any other expression may only produce a column the catalog
    * keeps no stats for (a map's sorted entries, an array).
    */
  private def scan(plan: LogicalPlan): Option[(HadoopFsRelation, Seq[Leaf])] = plan match {
    case Project(list, child) =>
      relation(child).flatMap { rel =>
        val kept = list.filter(e => StatsCatalog.hasStats(e.dataType))
        val leaves = kept.flatMap(e => column(e, child).map(Leaf(e.name, _, e.dataType)))
        if (leaves.size == kept.size) Some(rel -> leaves) else None
      }
    case _ => None
  }

  private def relation(plan: LogicalPlan): Option[HadoopFsRelation] = plan match {
    case Project(_, child) => relation(child)
    case l: LogicalRelation => l.relation match {
      case r: HadoopFsRelation if r.fileFormat.isInstanceOf[ParquetFileFormat] && r.partitionSchema.isEmpty &&
          !r.sparkSession.sessionState.conf.parquetFieldIdReadEnabled => Some(r)
      case _ => None
    }
    case _ => None
  }

  /** The path of the stored column `e` reads as is out of `plan`'s relation. */
  private def column(e: Expression, plan: LogicalPlan): Option[Seq[String]] = e match {
    case Alias(c, _)       => column(c, plan)
    case g: GetStructField => column(g.child, plan).map(_ :+ g.extractFieldName)
    case a: AttributeReference => plan match {
      case Project(list, child) => list.find(_.exprId == a.exprId).flatMap(column(_, child))
      case l: LogicalRelation   => l.output.find(_.exprId == a.exprId).map(r => Seq(r.name))
      case _                    => None
    }
    case _ => None
  }

  /** Row count and merged min/max of `leaves` over every row group of
    * `rel`'s files. Chunks merge in parquet's own order on their stored
    * values, which are decoded once at the end. Each footer is read with
    * options built from the relation's Hadoop conf: parquet's default
    * options would build a fresh `Configuration`, parsing Hadoop's default
    * resources, for every file.
    */
  private def footers(rel: HadoopFsRelation, leaves: Seq[Leaf]): (Long, Map[String, ColStats]) = {
    val conf = rel.sparkSession.sessionState.newHadoopConfWithOptions(rel.options)
    val rebaseMode = new ParquetOptions(rel.options, rel.sparkSession.sessionState.conf).datetimeRebaseModeInRead
    var rows = 0L
    val merged = scala.collection.mutable.Map.empty[Leaf, (PrimitiveType, Statistics[_])]
    val inexact = scala.collection.mutable.Set.empty[Leaf]

    // One chunk of `leaf`; false when it leaves the column without exact stats.
    def add(leaf: Leaf, cc: ColumnChunkMetaData, rebased: Boolean): Boolean = {
      val pt = cc.getPrimitiveType
      val s: Statistics[_] = cc.getStatistics
      val sameType = merged.get(leaf).forall { case (t, _) =>
        t.getPrimitiveTypeName == pt.getPrimitiveTypeName && t.getLogicalTypeAnnotation == pt.getLogicalTypeAnnotation
      }
      if (s == null || !sameType || decoder(leaf.dataType, pt).isEmpty) false
      else if (rebased && (leaf.dataType == DateType || leaf.dataType == TimestampType)) false
      else if (!s.hasNonNullValue) s.isNumNullsSet && s.getNumNulls == cc.getValueCount // all null: adds nothing
      else {
        merged.get(leaf) match {
          case None         => merged(leaf) = pt -> s.copy()
          case Some((_, m)) => m.mergeStatistics(s)
        }
        true
      }
    }

    for (file <- rel.location.inputFiles) {
      val path = new Path(new URI(file))
      val reader = ParquetFileReader.open(HadoopInputFile.fromPath(path, conf), HadoopReadOptions.builder(conf, path).build())
      val footer = try reader.getFooter finally reader.close()
      val meta = footer.getFileMetaData.getKeyValueMetaData
      val rebased = DataSourceUtils.datetimeRebaseSpec(k => meta.get(k), rebaseMode).mode == LegacyBehaviorPolicy.LEGACY
      for (block <- footer.getBlocks.asScala) {
        rows += block.getRowCount
        val chunks = block.getColumns.asScala.map(c => c.getPath.toArray.toSeq -> c).toMap
        for (leaf <- leaves if !inexact(leaf))
          if (!chunks.get(leaf.path).exists(add(leaf, _, rebased))) inexact += leaf
      }
    }
    val cols = merged.collect { case (leaf, (pt, s)) if !inexact(leaf) => leaf.token -> decoder(leaf.dataType, pt).get(s) }
    (rows, cols.toMap)
  }

  /** How the stored min/max of a chunk of type `pt` become the catalog's
    * stats for a column of Spark type `dt`, when they do exactly: each value
    * is passed to [[StatsCatalog.colStats]] as the internal value Spark
    * reads it as (epoch days for dates, `v × unit` micros for timestamps,
    * the unscaled value at the column's scale for INT32/INT64 decimals,
    * UTF-8 text for strings). INT96 timestamps, binary and fixed-length
    * decimals and non-string binary are not decoded.
    */
  private def decoder(dt: DataType, pt: PrimitiveType): Option[Statistics[_] => ColStats] = {
    def via(f: Any => Any): Option[Statistics[_] => ColStats] =
      Some(s => StatsCatalog.colStats(dt, f(s.genericGetMin), f(s.genericGetMax)))
    def long(v: Any): Long = v.asInstanceOf[Number].longValue
    val signed = pt.getLogicalTypeAnnotation match {
      case null                        => true
      case i: IntLogicalTypeAnnotation => i.isSigned
      case _                           => false
    }
    (dt, pt.getPrimitiveTypeName, pt.getLogicalTypeAnnotation) match {
      case (BooleanType, BOOLEAN, null) | (FloatType, FLOAT, null) | (DoubleType, DOUBLE, null) => via(identity)
      case (ByteType | ShortType | IntegerType, INT32, _) if signed => via(identity)
      case (LongType, INT64, _) if signed                           => via(identity)
      case (d: DecimalType, INT32 | INT64, a: DecimalLogicalTypeAnnotation) if a.getScale == d.scale =>
        via(v => Decimal.createUnsafe(long(v), d.precision, d.scale))
      case (DateType, INT32, _: DateLogicalTypeAnnotation) => via(identity)
      case (TimestampType, INT64, t: TimestampLogicalTypeAnnotation) if t.isAdjustedToUTC =>
        val micros = t.getUnit match {
          case TimeUnit.MILLIS => Some(1000L)
          case TimeUnit.MICROS => Some(1L)
          case TimeUnit.NANOS  => None
        }
        micros.flatMap(m => via(v => long(v) * m))
      case (StringType, BINARY, _: StringLogicalTypeAnnotation) => via(v => UTF8String.fromBytes(v.asInstanceOf[Binary].getBytes))
      case _ => None
    }
  }
}
