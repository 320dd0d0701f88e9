package repro.lake

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import scala.util.Random

import repro.core.SchemaSet.qcol

/** The transformation/processing operations the paper simulates for its
  * synthetic lakes (§6.1.1). Each models a real data-lake derivation:
  *
  *  - [[filterBy]]        size reduction via `SELECT … WHERE …` with Zipfian
  *                        value selection → child fully contained in parent
  *  - [[project]]         column subset → child contained in parent
  *  - [[addRows]]         new rows sampled from the columns' own value
  *                        distributions (stay inside every min/max range) →
  *                        parent fully contained in child, reverse edge is a
  *                        near-containment impostor only CLP can prune
  *  - [[addDerivedColumns]] new columns as linear combinations of numeric
  *                        columns → parent contained in child
  *  - [[noise]]           perturb a fraction of rows in a numeric column;
  *                        in-range noise survives MMP, out-of-range noise is
  *                        MMP-prunable
  *  - [[duplicate]]       exact copy (P = Q)
  */
object Transformations {

  /** Every DoubleType column of `df`, in schema order. */
  def doubleColumns(df: DataFrame): Seq[String] =
    df.schema.fields.toSeq.collect { case StructField(n, DoubleType, _, _) => n }

  def numericColumns(df: DataFrame): Seq[String] =
    df.schema.fields.toSeq.collect { case StructField(n, _: NumericType, _, _) => n }

  def stringColumns(df: DataFrame): Seq[String] =
    df.schema.fields.toSeq.collect { case StructField(n, StringType, _, _) => n }

  /** `SELECT * FROM parent WHERE col = value`, value picked Zipfian-rank by
    * frequency among `topValues`. Never returns an empty child: falls back to
    * the most frequent value.
    */
  def filterBy(parent: DataFrame, column: String, topValues: Seq[Any], zipf: Zipf, rng: Random): DataFrame = {
    require(topValues.nonEmpty, s"no values to filter on for $column")
    val rank = math.min(zipf.sample(rng), topValues.size)
    val value = topValues(rank - 1)
    parent.where(qcol(column) === lit(value))
  }

  /** Numeric range filter `col <= min + q·(max−min)` — a WHERE sample too. */
  def filterRange(parent: DataFrame, column: String, min: Double, max: Double, q: Double): DataFrame =
    parent.where(qcol(column) <= lit(min + q * (max - min)))

  /** Drop `dropCols`; the child's distinct rows are contained in the parent's
    * projection by construction.
    */
  def project(parent: DataFrame, dropCols: Seq[String]): DataFrame =
    parent.drop(dropCols: _*)

  /** Union the parent with `k` novel rows built by averaging a Double column
    * across sampled row pairs — per-column values stay inside the parent's
    * [min,max] (so MMP cannot distinguish), but the row *tuples* are new.
    */
  def addRows(spark: SparkSession, parent: DataFrame, k: Int, rng: Random): DataFrame = {
    val dcols = doubleColumns(parent)
    require(dcols.nonEmpty, "addRows needs a Double column to perturb in-range")
    val target = dcols(rng.nextInt(dcols.size))
    val ti = parent.columns.indexOf(target)
    val base = parent.limit(math.max(2, 2 * k)).collect()
    require(base.length >= 2, "parent too small for addRows")
    val newRows = (0 until k).map { i =>
      val a = base(rng.nextInt(base.length))
      val b = base(rng.nextInt(base.length))
      val vals = a.toSeq.toArray
      val avg = (a.getDouble(ti) + b.getDouble(ti)) / 2.0 + (i + 1) * 1e-7
      vals(ti) = avg
      Row.fromSeq(vals.toIndexedSeq)
    }
    val extra = spark.createDataFrame(
      spark.sparkContext.parallelize(newRows, 1),
      parent.schema,
    )
    parent.union(extra)
  }

  /** Add `n` derived columns, each a seeded linear combination of two numeric
    * columns — models analysts materializing computed features.
    */
  def addDerivedColumns(parent: DataFrame, n: Int, prefix: String, rng: Random): DataFrame = {
    val ncols = numericColumns(parent)
    require(ncols.size >= 2, "addDerivedColumns needs two numeric columns")
    (0 until n).foldLeft(parent) { (df, i) =>
      val a = ncols(rng.nextInt(ncols.size))
      val b = ncols(rng.nextInt(ncols.size))
      val (wa, wb) = (rng.nextDouble() * 3 + 0.5, rng.nextDouble() * 3 + 0.5)
      df.withColumn(s"${prefix}_derived$i",
        qcol(a).cast(DoubleType) * lit(wa) + qcol(b).cast(DoubleType) * lit(wb))
    }
  }

  /** Perturb ~`rho` of the rows in Double column `column`.
    *
    * In-range mode adds a small positive delta clamped to the column max, so
    * every per-column statistic stays inside the parent's range; out-of-range
    * mode shifts far beyond the max so MMP's necessary condition is violated.
    */
  def noise(parent: DataFrame, column: String, min: Double, max: Double,
            rho: Double, inRange: Boolean, seed: Long): DataFrame = {
    val range = math.max(1e-6, max - min)
    val c = qcol(column)
    val perturbed =
      if (inRange) least(lit(max), c + lit(range * 0.0037431))
      else c + lit(range * 3.0 + 1.0)
    parent.withColumn(column, when(rand(seed) < rho, perturbed).otherwise(c))
  }

  /** Exact duplicate — Spark row order is immaterial, so this is P = Q. */
  def duplicate(parent: DataFrame): DataFrame = parent.select(parent.columns.map(qcol): _*)
}
