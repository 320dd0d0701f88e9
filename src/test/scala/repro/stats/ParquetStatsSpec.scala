package repro.stats

import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}

/** The parquet-footer substrate: MMP's min/max must be readable from real
  * parquet metadata without scanning data, and must agree with the
  * aggregation-computed catalog wherever the footers report a column.
  */
class ParquetStatsSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.001, seed = 9).cache()

  /** Footer stats of the parquet dataset directory `dir`, read as a plain frame. */
  private def footerStats(dir: String): DatasetStats =
    ParquetStats.of(StatsCatalog.flatten(spark.read.parquet(dir))).getOrElse(fail(s"$dir: a plain parquet read must take the footer path"))

  test("footer stats equal computed stats for numeric, string and date columns") {
    val path = parquetDir(li)
    val footer = footerStats(path)
    val computed = StatsOracle.compute(li)
    assert(footer.rowCount == computed.rowCount)
    for ((colName, expected) <- computed.cols) {
      val got = footer.cols.get(colName)
      assert(got.contains(expected), s"$colName: footer=$got computed=$expected")
    }
  }

  test("multi-file datasets merge min/max across part files") {
    val path = parquetDir(li, parts = 4)
    val footer = footerStats(path)
    val computed = StatsOracle.compute(li)
    assert(footer.rowCount == computed.rowCount)
    assert(footer.cols("l_quantity") == computed.cols("l_quantity"))
    assert(footer.cols("l_returnflag") == computed.cols("l_returnflag"))
  }

  test("integer and long columns decode from INT32/INT64 footers") {
    val df = spark.range(1, 101).select(
      col("id"),
      (col("id") % 7).cast("int").as("small"),
    )
    val footer = footerStats(parquetDir(df))
    assert(footer.cols("id") == NumStats(1, 100))
    assert(footer.cols("small") == NumStats(0, 6))
  }

  test("boolean columns decode to 0/1 range") {
    val df = spark.range(10).select((col("id") % 2 === 0).as("flag"))
    val footer = footerStats(parquetDir(df))
    assert(footer.cols("flag") == NumStats(0.0, 1.0))
  }

  test("float columns decode from FLOAT footers") {
    val df = spark.range(1, 11).select((col("id").cast("float") / 2.0f).as("f"))
    val footer = footerStats(parquetDir(df))
    assert(footer.cols("f") == NumStats(0.5, 5.0))
  }

  test("timestamp columns canonicalize to epoch millis, matching the catalog") {
    // INT96 footers carry no statistics; parquetDir writes annotated INT64 micros.
    val df = spark.sql(
      "SELECT timestamp'2020-01-01 00:00:00 UTC' AS ts UNION ALL SELECT timestamp'2021-06-15 12:00:00 UTC'")
    val footer = footerStats(parquetDir(df))
    val computed = StatsOracle.compute(df)
    assert(footer.cols("ts") == computed.cols("ts"))
  }

  test("MMP works identically from footer stats and from the catalog") {
    import repro.core._
    val parent = li
    val child = li.where(col("l_quantity") > 25)
    val pPath = parquetDir(parent)
    val cPath = parquetDir(child)
    val footers = Map("p" -> footerStats(pPath), "c" -> footerStats(cPath))
    val computed = Map("p" -> StatsOracle.compute(parent), "c" -> StatsOracle.compute(child))
    val g = ContainmentGraph(Seq("p", "c"), Seq(Edge("p", "c"), Edge("c", "p")))
    val fromFooter = MMP.prune(g, footers(_)).graph.edges
    val fromCatalog = MMP.prune(g, computed(_)).graph.edges
    assert(fromFooter == fromCatalog)
    assert(fromFooter.contains(Edge("p", "c")))  // child ⊆ parent survives
    assert(!fromFooter.contains(Edge("c", "p"))) // parent ⊄ child pruned by range
  }

  /** Footer and computed stats agree on every column the footers report. */
  private def agree(footer: DatasetStats, computed: DatasetStats): Unit = {
    assert(footer.rowCount == computed.rowCount)
    for ((c, got) <- footer.cols) assert(computed.cols.get(c).contains(got), s"$c: footer=$got computed=${computed.cols.get(c)}")
  }

  test("INT32 and INT64 decimals decode scaled; fixed-length decimals get no stats") {
    val df = spark.sql(
      """SELECT CAST(v AS DECIMAL(10,2)) AS d10, CAST(v AS DECIMAL(5,2)) AS d5, CAST(v AS DECIMAL(20,2)) AS d20
        |FROM VALUES (12.34), (-5.5) AS t(v)""".stripMargin)
    val footer = footerStats(parquetDir(df))
    agree(footer, StatsOracle.compute(df))
    assert(footer.cols("d10") == NumStats(-5.5, 12.34))
    assert(footer.cols("d5") == NumStats(-5.5, 12.34))
    assert(!footer.cols.contains("d20"))
  }

  test("sub-millisecond timestamps floor to epoch millis, as Timestamp.getTime does") {
    val df = spark.sql(
      """SELECT timestamp_micros(v) AS ts FROM VALUES
        |(1577836800000500L), (1577836800123999L), (-500L) AS t(v)""".stripMargin)
    val footer = footerStats(parquetDir(df))
    assert(footer.cols("ts") == NumStats(-1.0, 1577836800123.0))
    assert(footer.cols("ts") == StatsOracle.compute(df).cols("ts"))
  }

  test("a row group without statistics leaves its column without stats") {
    val path = parquetDir(spark.range(3).select(concat(lit("b"), col("id").cast("string")).as("s"), col("id")))
    // Parquet keeps no min/max for a chunk whose values exceed 4 KiB.
    spark.range(1).select(lit("a" + "z" * 5000).as("s"), col("id")).write.mode("append").parquet(path)
    val df = spark.read.parquet(path)
    val footer = footerStats(path)
    assert(footer.rowCount == 4)
    assert(!footer.cols.contains("s"))
    assert(footer.cols("id") == NumStats(0, 2))
    assert(StatsOracle.compute(df).cols("s") == StrStats("a" + "z" * 5000, "b2"))
    agree(footer, StatsOracle.compute(df))
  }

  test("a column holding NaN gets no footer stats; an all-null file adds nothing") {
    val nan = spark.range(10).select(when(col("id") === 3, lit(Double.NaN)).otherwise(col("id").cast("double")).as("x"), col("id"))
    val path = parquetDir(nan)
    spark.range(2).select(lit(null).cast("double").as("x"), lit(null).cast("long").as("id")).write.mode("append").parquet(path)
    val footer = footerStats(path)
    assert(footer.rowCount == 12)
    assert(!footer.cols.contains("x"))
    assert(footer.cols("id") == NumStats(0, 9))
    agree(footer, StatsOracle.compute(spark.read.parquet(path)))
  }
}
