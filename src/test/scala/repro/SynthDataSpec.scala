package repro

import org.apache.spark.sql.functions._

/** The provided TPC-H-lite generators feed every lake root — pin down their
  * determinism, ranges and oracle-checked aggregates.
  */
class SynthDataSpec extends SparkSpec {

  test("lineitem row count scales with sf") {
    assert(SynthData.lineitem(spark, sf = 0.0001).count() == 600)
    assert(SynthData.orders(spark, sf = 0.0001).count() == 150)
    assert(SynthData.customer(spark, sf = 0.001).count() == 150)
    assert(SynthData.part(spark, sf = 0.001).count() == 200)
  }

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.lineitem(spark, 0.0001, seed = 7).collect().map(_.toString).sorted
    val b = SynthData.lineitem(spark, 0.0001, seed = 7).collect().map(_.toString).sorted
    assert(a.sameElements(b))
    val c = SynthData.lineitem(spark, 0.0001, seed = 8).collect().map(_.toString).sorted
    assert(!a.sameElements(c))
  }

  test("lineitem values stay in their documented ranges") {
    val li = SynthData.lineitem(spark, 0.0005)
    val r = li.agg(
      min("l_quantity"), max("l_quantity"),
      min("l_discount"), max("l_discount"),
      min("l_linenumber"), max("l_linenumber"),
    ).collect()(0)
    assert(r.getDouble(0) >= 1.0 && r.getDouble(1) <= 51.0)
    assert(r.getDouble(2) >= 0.0 && r.getDouble(3) <= 0.10)
    assert(r.getInt(4) >= 1 && r.getInt(5) <= 8)
  }

  test("orders aggregate matches the DuckDB oracle") {
    val o = SynthData.orders(spark, 0.0005).cache()
    Oracle.assertEquivalent(
      o.groupBy("o_orderstatus").agg(count(lit(1)).as("n"), sum("o_custkey").as("s")),
      """SELECT o_orderstatus, count(*) AS n, sum(CAST(o_custkey AS BIGINT)) AS s
        |FROM orders GROUP BY o_orderstatus""".stripMargin,
      "orders" -> o,
    )
  }

  test("customer segments are the five documented values") {
    val segs = SynthData.customer(spark, 0.002).select("c_mktsegment").distinct()
      .collect().map(_.getString(0)).toSet
    assert(segs.subsetOf(Set("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")))
    assert(segs.size >= 3)
  }

  test("part retail price is a deterministic function of the key") {
    val p = SynthData.part(spark, 0.001)
    val bad = p.where(col("p_retailprice") =!= round(lit(900.0) + (col("p_partkey") % 1000) / 10.0, 2))
    assert(bad.isEmpty)
  }
}
