package repro.lake

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{GroundTruth, TableData}
import repro.stats.{NumStats, StatsOracle}

import scala.util.Random

class TransformationsSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.0002, seed = 17).cache() // ~1200 rows
  lazy val liStats = StatsOracle.compute(li)
  private def gt(name: String, df: org.apache.spark.sql.DataFrame) = TableData.fromDf(name, df)

  test("filterBy equals the corresponding SELECT … WHERE on DuckDB") {
    val child = li.where(col("l_returnflag") === "N")
    Oracle.assertEquivalent(
      child.groupBy().agg(count(lit(1)).as("n")),
      "SELECT count(*) AS n FROM lineitem WHERE l_returnflag = 'N'",
      "lineitem" -> li,
    )
  }

  test("filterBy child is fully contained in the parent and non-empty") {
    val rng = new Random(1)
    val values = li.groupBy("l_returnflag").count().orderBy(desc("count")).collect().map(_.get(0)).toSeq
    val child = Transformations.filterBy(li, "l_returnflag", values, new Zipf(values.size), rng)
    assert(child.count() > 0)
    assert(GroundTruth.containmentFraction(gt("c", child), gt("p", li)) == 1.0)
  }

  test("filterRange child is contained and respects the numeric bound") {
    val NumStats(lo, hi) = liStats.cols("l_quantity").asInstanceOf[NumStats]
    val child = Transformations.filterRange(li, "l_quantity", lo, hi, 0.5)
    assert(child.count() > 0)
    assert(child.agg(max("l_quantity")).collect()(0).getDouble(0) <= lo + 0.5 * (hi - lo))
    assert(GroundTruth.containmentFraction(gt("c", child), gt("p", li)) == 1.0)
  }

  test("project child drops columns, keeps containment (distinct rows)") {
    val child = Transformations.project(li, Seq("l_discount", "l_tax"))
    assert(child.columns.toSet == li.columns.toSet -- Set("l_discount", "l_tax"))
    assert(GroundTruth.containmentFraction(gt("c", child), gt("p", li)) == 1.0)
  }

  test("addRows child strictly contains the parent, with k extra rows") {
    val child = Transformations.addRows(spark, li, k = 5, new Random(2)).cache()
    assert(child.count() == li.count() + 5)
    // Parent fully contained in child…
    assert(GroundTruth.containmentFraction(gt("p", li), gt("c", child)) == 1.0)
    // …child NOT contained in parent (the k new tuples are novel).
    assert(GroundTruth.containmentFraction(gt("c", child), gt("p", li)) < 1.0)
  }

  test("addRows keeps every column's min/max inside the parent's range (MMP-invisible)") {
    val child = Transformations.addRows(spark, li, k = 8, new Random(3))
    val cs = StatsOracle.compute(child)
    for ((name, s) <- liStats.cols) (s, cs.cols(name)) match {
      case (NumStats(lo, hi), NumStats(clo, chi)) =>
        assert(clo >= lo - 1e-9 && chi <= hi + 1e-9, s"$name range escaped")
      case _ => // string stats: new rows reuse existing values
    }
  }

  test("addDerivedColumns adds a superset schema; parent contained in child") {
    val child = Transformations.addDerivedColumns(li, n = 2, "t", new Random(4))
    assert(child.columns.length == li.columns.length + 2)
    assert(GroundTruth.containmentFraction(gt("p", li), gt("c", child)) == 1.0)
  }

  test("derived column values match DuckDB's computed expression") {
    val child = li.withColumn("d0", col("l_quantity") * lit(2.0) + col("l_tax") * lit(1.5))
    Oracle.assertEquivalent(
      child.agg(sum("d0").as("s")),
      "SELECT sum(CAST(l_quantity AS DOUBLE) * 2.0 + CAST(l_tax AS DOUBLE) * 1.5) AS s FROM lineitem",
      "lineitem" -> li,
    )
  }

  test("in-range noise perturbs roughly rho of the rows") {
    val NumStats(lo, hi) = liStats.cols("l_extendedprice").asInstanceOf[NumStats]
    val child = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.2, inRange = true, seed = 5)
    val frac = GroundTruth.containmentFraction(gt("c", child), gt("p", li))
    assert(frac < 1.0 && frac > 0.6, s"containment fraction $frac")
    assert(math.abs((1.0 - frac) - 0.2) < 0.1, s"perturbed fraction ${1.0 - frac}")
  }

  test("in-range noise never escapes the parent's [min,max]") {
    val NumStats(lo, hi) = liStats.cols("l_extendedprice").asInstanceOf[NumStats]
    val child = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.5, inRange = true, seed = 6)
    val r = child.agg(min("l_extendedprice"), max("l_extendedprice")).collect()(0)
    assert(r.getDouble(0) >= lo - 1e-9 && r.getDouble(1) <= hi + 1e-9)
  }

  test("out-of-range noise pushes the max beyond the parent's (MMP-visible)") {
    val NumStats(lo, hi) = liStats.cols("l_extendedprice").asInstanceOf[NumStats]
    val child = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.3, inRange = false, seed = 7)
    val childMax = child.agg(max("l_extendedprice")).collect()(0).getDouble(0)
    assert(childMax > hi)
  }

  test("duplicate is exactly equal content, both directions") {
    val child = Transformations.duplicate(li)
    assert(GroundTruth.containmentFraction(gt("c", child), gt("p", li)) == 1.0)
    assert(GroundTruth.containmentFraction(gt("p", li), gt("c", child)) == 1.0)
  }

  test("column helpers find the right types") {
    assert(Transformations.doubleColumns(li).contains("l_quantity"))
    assert(Transformations.stringColumns(li).toSet == Set("l_returnflag", "l_linestatus"))
    assert(Transformations.numericColumns(li).contains("l_linenumber"))
  }
}
