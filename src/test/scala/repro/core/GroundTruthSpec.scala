package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec

class GroundTruthSpec extends SparkSpec {

  private def table(name: String, cols: Seq[String], rows: Seq[Seq[String]]): TableData =
    TableData(name, cols, rows.map(_.toArray).toArray)

  test("schemaGraph performs exactly C(N,2) comparisons") {
    val ds = (0 until 7).map(i => s"T$i" -> SchemaSet(Set(s"c$i", "shared")))
    val (_, ops) = GroundTruth.schemaGraph(ds)
    assert(ops == 21)
  }

  test("schemaGraph adds both directions for equal schemas") {
    val ds = Seq("a" -> SchemaSet(Set("x")), "b" -> SchemaSet(Set("x")))
    val (g, _) = GroundTruth.schemaGraph(ds)
    assert(g.edges == Set(Edge("a", "b"), Edge("b", "a")))
  }

  test("containmentFraction: full containment via projection") {
    val parent = table("p", Seq("a", "b", "c"), Seq(Seq("1", "x", "m"), Seq("2", "y", "n")))
    val child = table("c", Seq("a", "b"), Seq(Seq("1", "x"), Seq("2", "y")))
    assert(GroundTruth.containmentFraction(child, parent) == 1.0)
  }

  test("containmentFraction: partial containment is the contained fraction of distinct rows") {
    val parent = table("p", Seq("a"), Seq(Seq("1"), Seq("2")))
    val child = table("c", Seq("a"), Seq(Seq("1"), Seq("3"), Seq("4"), Seq("2")))
    assert(GroundTruth.containmentFraction(child, parent) == 0.5)
  }

  test("containmentFraction: column order does not matter (row tuples, not positions)") {
    val parent = table("p", Seq("b", "a"), Seq(Seq("x", "1")))
    val child = table("c", Seq("a", "b"), Seq(Seq("1", "x")))
    assert(GroundTruth.containmentFraction(child, parent) == 1.0)
  }

  test("containmentFraction: duplicates in the child count once (distinct-row semantics)") {
    val parent = table("p", Seq("a"), Seq(Seq("1")))
    val child = table("c", Seq("a"), Seq(Seq("1"), Seq("1"), Seq("1")))
    assert(GroundTruth.containmentFraction(child, parent) == 1.0)
  }

  test("containmentFraction: footnote-6 tables are mutually non-contained") {
    val t1 = table("t1", Seq("m", "d"), Seq(Seq("June", "20"), Seq("May", "12")))
    val t2 = table("t2", Seq("m", "d"), Seq(Seq("June", "12"), Seq("May", "20")))
    assert(GroundTruth.containmentFraction(t1, t2) == 0.0)
    assert(GroundTruth.containmentFraction(t2, t1) == 0.0)
  }

  test("empty child is trivially contained") {
    val parent = table("p", Seq("a"), Seq(Seq("1")))
    val child = table("c", Seq("a"), Seq.empty)
    assert(GroundTruth.containmentFraction(child, parent) == 1.0)
  }

  test("projectedKeys separates values with a control character (no concat collisions)") {
    val t = table("t", Seq("a", "b"), Seq(Seq("ab", "c"), Seq("a", "bc")))
    assert(t.projectedKeys(Seq("a", "b")).size == 2)
    val child = table("c", Seq("a", "b"), Seq(Seq("a\u0001b", "c")))
    val parent = table("p", Seq("a", "b"), Seq(Seq("a", "b\u0001c")))
    assert(GroundTruth.containmentFraction(child, parent) == 0.0)
  }

  test("projectedKeys rejects unknown columns") {
    val t = table("t", Seq("a"), Seq(Seq("1")))
    intercept[IllegalArgumentException](t.projectedKeys(Seq("zzz")))
  }

  test("contentGraph keeps only CM=1 edges and accumulates Σ MiMj ops") {
    val p = table("p", Seq("a"), Seq(Seq("1"), Seq("2"), Seq("3")))
    val cIn = table("cIn", Seq("a"), Seq(Seq("1"), Seq("2")))
    val cOut = table("cOut", Seq("a"), Seq(Seq("1"), Seq("9")))
    val data = Map("p" -> p, "cIn" -> cIn, "cOut" -> cOut)
    val sg = ContainmentGraph(data.keys, Seq(Edge("p", "cIn"), Edge("p", "cOut")))
    val gt = GroundTruth.contentGraph(sg, data(_))
    assert(gt.graph.edges == Set(Edge("p", "cIn")))
    assert(gt.fractions(Edge("p", "cOut")) == 0.5)
    assert(gt.pairwiseOps == 3L * 2 + 3L * 2)
  }

  test("binary cells compare by content: a row subset of a binary table is contained") {
    val parent = spark.range(10).select(col("id"), col("id").cast("string").cast("binary").as("b"))
    val child = parent.where(col("id") < 5)
    assert(GroundTruth.containmentFraction(TableData.fromDf("c", child), TableData.fromDf("p", parent)) == 1.0)
  }

  test("-0.0 and 0.0 are one value: a child holding -0.0 under a parent holding 0.0 is contained") {
    val parent = spark.createDataFrame(Seq((1, 0.0, 0.0f), (2, 1.5, 1.5f))).toDF("id", "d", "f")
    val child = spark.createDataFrame(Seq((1, -0.0, -0.0f))).toDF("id", "d", "f")
    assert(GroundTruth.containmentFraction(TableData.fromDf("c", child), TableData.fromDf("p", parent)) == 1.0)
  }

  test("nested cells compare by content: a row subset with array<binary> and array<struct> columns is contained") {
    val parent = spark.range(10).select(
      col("id"),
      array(col("id").cast("string").cast("binary"), lit(Array[Byte](1, 2))).as("bins"),
      array(struct(col("id").cast("string").cast("binary").as("b"), lit(-0.0).as("z"))).as("items"),
    )
    val child = spark.range(5).select(
      col("id"),
      array(col("id").cast("string").cast("binary"), lit(Array[Byte](1, 2))).as("bins"),
      array(struct(col("id").cast("string").cast("binary").as("b"), lit(0.0).as("z"))).as("items"),
    )
    assert(GroundTruth.containmentFraction(TableData.fromDf("c", child), TableData.fromDf("p", parent)) == 1.0)
  }

  test("a float is the double it widens to: a float cast of a double column is contained only where exact") {
    val parent = spark.createDataFrame(Seq((1, 0.1), (2, 0.7), (3, 0.5), (4, -0.0))).toDF("id", "x")
    val child = parent.select(col("id"), col("x").cast("float").as("x"))
    // 0.1f and 0.7f widen to 0.10000000149… and 0.699999988…, which the
    // parent lacks; 0.5f and -0.0f widen to the parent's values. MMP keeps
    // the edge (the widened range fits), CLP hashes the child's rows with
    // their values widened and prunes it, and the ground truth must agree.
    assert(GroundTruth.containmentFraction(TableData.fromDf("c", child), TableData.fromDf("p", parent)) == 0.5)
    assert(!R2D2.run(Seq("p" -> parent, "c" -> child)).containmentGraph.edges.contains(Edge("p", "c")))
    val exact = child.where(col("id") >= 3)
    assert(GroundTruth.containmentFraction(TableData.fromDf("c", exact), TableData.fromDf("p", parent)) == 1.0)
    assert(TableData.cell(0.1f) == TableData.cell(0.1f.toDouble) && TableData.cell(-0.0f) == "0.0")
  }

  test("nested cells render injectively: arrays whose elements join to the same text differ") {
    assert(TableData.cell(Seq("a,b")) != TableData.cell(Seq("a", "b")))
    assert(TableData.cell(Seq(Seq("a"), Seq())) != TableData.cell(Seq(Seq(), Seq("a"))))
    assert(TableData.cell(Seq(null)) != TableData.cell(Seq("∅")))
  }

  test("a null and the string \"∅\" are different values, in both directions") {
    val sym = TableData.fromDf("sym", spark.createDataFrame(Seq(Tuple1(Option("∅")))).toDF("s"))
    val nul = TableData.fromDf("nul", spark.createDataFrame(Seq(Tuple1(Option.empty[String]))).toDF("s"))
    assert(GroundTruth.containmentFraction(sym, nul) == 0.0)
    assert(GroundTruth.containmentFraction(nul, sym) == 0.0)
    assert(GroundTruth.containmentFraction(nul, nul) == 1.0)
  }
}
