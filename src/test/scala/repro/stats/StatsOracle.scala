package repro.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.SchemaSet

/** The stats oracle: one SQL aggregation (`count`, `min` and `max`) over a
  * frame's flattened rows, whose one result row is read as Catalyst's
  * internal values and converted as the program converts its own, through
  * [[StatsCatalog.colStats]]. It shares no code with [[StatsCatalog.scan]]
  * beyond that conversion, so the two must agree on every column.
  */
object StatsOracle {

  def compute(df: DataFrame): DatasetStats = {
    val flat = StatsCatalog.flatten(df)
    val fields = flat.schema.fields.toSeq.filter(f => StatsCatalog.hasStats(f.dataType))
    val aggs = count(lit(1)) +: fields.flatMap(f => Seq(min(SchemaSet.qcol(f.name)), max(SchemaSet.qcol(f.name))))
    val row = flat.agg(aggs.head, aggs.tail: _*).queryExecution.toRdd.map(_.copy()).collect()(0)
    val rowCount = row.getLong(0)
    val cols = fields.zipWithIndex.collect {
      case (f, i) if !row.isNullAt(2 * i + 1) =>
        f.name -> StatsCatalog.colStats(f.dataType, row.get(2 * i + 1, f.dataType), row.get(2 * i + 2, f.dataType))
    }.toMap
    DatasetStats(rowCount, rowCount * flat.schema.defaultSize, cols)
  }
}
