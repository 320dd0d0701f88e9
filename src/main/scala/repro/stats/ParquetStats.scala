package repro.stats

import java.io.File

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.column.statistics.Statistics
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.parquet.io.api.Binary
import org.apache.parquet.schema.LogicalTypeAnnotation
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName

import scala.jdk.CollectionConverters._

/** Reads per-column min/max and row counts directly from parquet footers.
  *
  * This is the substrate the paper leans on for MMP: "for datasets that are
  * partitioned and stored in parquet format, values such as the columnar
  * minimum and maximum are often stored as metadata" (§4.2). No data pages
  * are read — only footers — so the cost is O(files), not O(rows).
  *
  * Values are canonicalized exactly like [[StatsCatalog.compute]] (dates to
  * epoch days, timestamps to epoch millis) so the two sources agree.
  */
object ParquetStats {

  /** Read merged stats for a parquet dataset directory written by Spark. */
  def read(dir: String, conf: Configuration = new Configuration()): DatasetStats = {
    val files = Option(new File(dir).listFiles())
      .getOrElse(Array.empty)
      .filter(f => f.isFile && f.getName.endsWith(".parquet"))
      .sortBy(_.getName)
    require(files.nonEmpty, s"no parquet part files under $dir")

    var rowCount = 0L
    val mins = scala.collection.mutable.Map.empty[String, ColStats]

    def merge(tok: String, s: ColStats): Unit = mins.get(tok) match {
      case None => mins(tok) = s
      case Some(NumStats(lo, hi)) =>
        val n = s.asInstanceOf[NumStats]
        mins(tok) = NumStats(math.min(lo, n.min), math.max(hi, n.max))
      case Some(StrStats(lo, hi)) =>
        val n = s.asInstanceOf[StrStats]
        mins(tok) = StrStats(StrStats.order.min(lo, n.min), StrStats.order.max(hi, n.max))
    }

    for (f <- files) {
      val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(f.getAbsolutePath), conf))
      try {
        val footer = reader.getFooter
        for (block <- footer.getBlocks.asScala) {
          rowCount += block.getRowCount
          for (cc <- block.getColumns.asScala) {
            val tok = cc.getPath.toDotString
            val stats = cc.getStatistics
            if (stats != null && stats.hasNonNullValue) {
              val pt = cc.getPrimitiveType
              decode(pt.getPrimitiveTypeName, pt.getLogicalTypeAnnotation, stats)
                .foreach(merge(tok, _))
            }
          }
        }
      } finally reader.close()
    }
    val sizeBytes = files.map(_.length).sum
    DatasetStats(rowCount, sizeBytes, mins.toMap)
  }

  private def decode(
      ptn: PrimitiveTypeName,
      logical: LogicalTypeAnnotation,
      s: Statistics[_],
  ): Option[ColStats] = {
    def num(lo: Double, hi: Double) = Some(NumStats(lo, hi))
    ptn match {
      case PrimitiveTypeName.INT32 =>
        val lo = s.genericGetMin.asInstanceOf[Integer].toDouble
        val hi = s.genericGetMax.asInstanceOf[Integer].toDouble
        // DATE is int32 epoch-days, which is already our canonical form.
        num(lo, hi)
      case PrimitiveTypeName.INT64 =>
        val lo = s.genericGetMin.asInstanceOf[java.lang.Long].toDouble
        val hi = s.genericGetMax.asInstanceOf[java.lang.Long].toDouble
        logical match {
          case ts: LogicalTypeAnnotation.TimestampLogicalTypeAnnotation =>
            // Spark writes TIMESTAMP as int64 micros; canonical form is millis.
            val div = ts.getUnit match {
              case LogicalTypeAnnotation.TimeUnit.MICROS => 1000.0
              case LogicalTypeAnnotation.TimeUnit.NANOS  => 1e6
              case _                                     => 1.0
            }
            num(lo / div, hi / div)
          case _ => num(lo, hi)
        }
      case PrimitiveTypeName.DOUBLE =>
        num(s.genericGetMin.asInstanceOf[java.lang.Double], s.genericGetMax.asInstanceOf[java.lang.Double])
      case PrimitiveTypeName.FLOAT =>
        num(s.genericGetMin.asInstanceOf[java.lang.Float].toDouble, s.genericGetMax.asInstanceOf[java.lang.Float].toDouble)
      case PrimitiveTypeName.BOOLEAN =>
        val lo = if (s.genericGetMin.asInstanceOf[java.lang.Boolean]) 1.0 else 0.0
        val hi = if (s.genericGetMax.asInstanceOf[java.lang.Boolean]) 1.0 else 0.0
        num(lo, hi)
      case PrimitiveTypeName.BINARY =>
        logical match {
          case _: LogicalTypeAnnotation.StringLogicalTypeAnnotation =>
            Some(StrStats(
              s.genericGetMin.asInstanceOf[Binary].toStringUsingUTF8,
              s.genericGetMax.asInstanceOf[Binary].toStringUsingUTF8,
            ))
          case _ => None // opaque binary — MMP cannot use it
        }
      case _ => None
    }
  }
}
