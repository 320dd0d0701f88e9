package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
import repro.lake.Transformations
import repro.stats.{NumStats, StatsCatalog}

import scala.util.Random

class CLPSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.0002, seed = 23).cache()
  private def sch(df: DataFrame): SchemaSet = SchemaSet.fromStruct(df.schema)

  /** CLP over the one-edge graph p → c. */
  private def pruneEdge(parent: DataFrame, child: DataFrame, cfg: CLPConfig): CLPResult = {
    val dfs = Map("p" -> parent, "c" -> child)
    CLP.prune(ContainmentGraph(dfs.keys, Seq(Edge("p", "c"))), dfs(_), n => sch(dfs(n)), cfg)
  }

  /** Is the edge p → c pruned? */
  private def check(parent: DataFrame, child: DataFrame, cfg: CLPConfig = CLPConfig()): Boolean =
    pruneEdge(parent, child, cfg).pruned.nonEmpty

  test("never prunes a WHERE-filter child (true containment)") {
    val child = li.where(col("l_returnflag") === "N").cache()
    assert(!check(li, child))
  }

  test("never prunes a projection child") {
    val child = Transformations.project(li, Seq("l_tax")).cache()
    assert(!check(li, child))
  }

  test("never prunes an exact duplicate, either direction") {
    val dup = Transformations.duplicate(li)
    assert(!check(li, dup))
    assert(!check(dup, li))
  }

  test("never prunes a child of an add-columns parent (projection containment)") {
    val wide = Transformations.addDerivedColumns(li, 1, "w", new Random(1)).cache()
    assert(!check(wide, li))
  }

  test("prunes a disjoint sibling on the first probes") {
    val a = li.where(col("l_returnflag") === "N").cache()
    val b = li.where(col("l_returnflag") === "R").cache()
    assert(check(a, b))
    assert(check(b, a))
  }

  test("prunes heavy in-range noise with high probability") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.5, inRange = true, seed = 2).cache()
    assert(check(li, noisy, CLPConfig(s = 4, t = 10)))
  }

  test("light contamination often survives weak sampling but not strong sampling") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.35, inRange = true, seed = 3).cache()
    // With s·t large the detection probability 1−(1−ρ)^{s·t} ≈ 1.
    assert(check(li, noisy, CLPConfig(s = 8, t = 50, seed = 4)))
  }

  test("prune over a graph removes only refuted edges and counts probes") {
    val filt = li.where(col("l_quantity") <= 25).cache()
    val bad = li.withColumn("l_quantity", col("l_quantity") + 1000).cache()
    val names = Map("p" -> li, "filt" -> filt, "bad" -> bad)
    val schemas = names.map { case (k, v) => k -> sch(v) }
    val g = ContainmentGraph(names.keys, Seq(Edge("p", "filt"), Edge("p", "bad")))
    val res = CLP.prune(g, names(_), schemas(_), CLPConfig(s = 2, t = 5))
    assert(res.graph.edges == Set(Edge("p", "filt")))
    assert(res.pruned == Set(Edge("p", "bad")))
    assert(res.probeCount > 0)
  }

  test("no common columns means no probes and no pruning") {
    val other = spark.range(5).select(col("id").as("zzz"))
    val res = pruneEdge(li, other, CLPConfig())
    assert(res.pruned.isEmpty && res.probeCount == 0)
  }

  test("null values are handled null-safely (a contained child with nulls is kept)") {
    val parent = spark.range(10).select(
      col("id"),
      when(col("id") % 2 === 0, col("id").cast("double")).as("maybe"),
    ).cache()
    val child = parent.where(col("id") < 5).cache()
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("a child with nulls absent from the parent is pruned") {
    val parent = spark.range(10).select(col("id"), col("id").cast("double").as("v")).cache()
    val child = spark.range(10).select(col("id"), lit(null).cast("double").as("v")).cache()
    assert(check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("paper footnote 6: every column's values contained but no row is pruned") {
    val parent = spark.createDataFrame(Seq((1, "a"), (2, "b"))).toDF("n", "s")
    val child = spark.createDataFrame(Seq((1, "b"), (2, "a"))).toDF("n", "s")
    assert(check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  private lazy val collections = StatsCatalog.flatten(spark.range(30).select(
    col("id"),
    array(col("id"), col("id") + 1).as("xs"),
    array(struct(col("id").as("a"), col("id").cast("string").as("b"))).as("items"),
    map(lit("k"), col("id"), lit("j"), col("id") * 2).as("m"),
  )).cache()

  test("array and map leaves join as whole values: a row subset is kept") {
    assert(!check(collections, collections.where(col("id") % 3 === 0), CLPConfig(s = 4, t = 30)))
  }

  test("a child that differs only in an array leaf is pruned") {
    val shifted = collections.withColumn("xs", array(col("id"), col("id") + 2))
    assert(check(collections, shifted, CLPConfig(s = 4, t = 30)))
  }

  test("probe budget respects s (probes ≤ s per edge)") {
    val dup = Transformations.duplicate(li)
    assert(pruneEdge(li, dup, CLPConfig(s = 3, t = 5)).probeCount <= 3 * 1)
  }

  test("deterministic in seed") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.1, inRange = true, seed = 8).cache()
    val r1 = check(li, noisy, CLPConfig(s = 2, t = 3, seed = 99))
    val r2 = check(li, noisy, CLPConfig(s = 2, t = 3, seed = 99))
    assert(r1 == r2)
  }

  // Verdicts are functions of (seed, row content): the same frames split
  // into 1 or 7 partitions give the same pruned edges and probe count. With
  // s = 1 and t = 2, each noisy edge is pruned only with moderate
  // probability, so a sample that moved with the partitioning would flip
  // some of the eight verdicts.
  test("partition-independent: 1 and 7 partitions give identical results") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = (1 to 8).map(i =>
      s"noisy$i" -> Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.3, inRange = true, seed = i).cache())
    val lake = Map(
      "p" -> li,
      "flagN" -> li.where(col("l_returnflag") === "N"),
      "flagR" -> li.where(col("l_returnflag") === "R"),
    ) ++ noisy
    val edges = Seq(Edge("p", "flagN"), Edge("flagN", "flagR")) ++ noisy.map { case (n, _) => Edge("p", n) }
    val schemas = lake.map { case (k, v) => k -> sch(v) }
    def prune(parts: Int): CLPResult = {
      val dfs = lake.map { case (k, v) => k -> v.repartition(parts).cache() }
      CLP.prune(ContainmentGraph(lake.keys, edges), dfs(_), schemas(_), CLPConfig(s = 1, t = 2, seed = 7))
    }
    val (one, seven) = (prune(1), prune(7))
    assert(one.pruned == seven.pruned)
    assert(one.probeCount == seven.probeCount)
    assert(one.pruned.contains(Edge("flagN", "flagR")) && !one.pruned.contains(Edge("p", "flagN")))
  }

  // Exactness: a row whose content hash is not found in the parent is only
  // a suspect; the null-safe join decides. An int key against a long key
  // always misses the hash (Spark hashes an int in 4 bytes, a long in 8),
  // so those cases reach the join. Spark's xxhash64 equates -0.0 and 0.0,
  // so with equal types the sample's hashes are found directly.
  private lazy val zeros = spark.createDataFrame(Seq((1L, 0.0), (2L, 1.5))).toDF("id", "v")

  test("a -0.0 child value against a 0.0 parent value is kept") {
    val child = spark.createDataFrame(Seq((1L, -0.0))).toDF("id", "v")
    assert(!check(zeros, child, CLPConfig(s = 2, t = 10)))
    assert(!check(zeros, child.select(col("id").cast("int").as("id"), col("v")), CLPConfig(s = 2, t = 10)))
  }

  test("an int child column against a long parent column with equal values is kept") {
    val parent = spark.range(10).select(col("id"), (col("id") * 2).as("twice")).cache()
    val child = spark.createDataFrame(Seq((1, 2L), (4, 8L))).toDF("id", "twice")
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("a -0.0 inside an array<double> leaf is kept") {
    val parent = spark.range(3).select(col("id"), array(lit(0.0), col("id").cast("double")).as("xs")).cache()
    val child = spark.range(3).select(col("id"), array(lit(-0.0), col("id").cast("double")).as("xs"))
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
    assert(!check(parent, child.withColumn("id", col("id").cast("int")), CLPConfig(s = 2, t = 10)))
  }

  test("one child with two parents is sampled once; only the refuting parent's edge is pruned") {
    val base = li.where(col("l_returnflag") === "N").coalesce(1)
    val scans = spark.sparkContext.longAccumulator("child scans")
    val child = spark.createDataFrame(base.rdd.mapPartitions { it => scans.add(1); it }, base.schema)
    val shifted = li.withColumn("l_quantity", col("l_quantity") + 1000).cache()
    val dfs = Map("keep" -> li, "shift" -> shifted, "c" -> child)
    val g = ContainmentGraph(dfs.keys, Seq(Edge("keep", "c"), Edge("shift", "c")))
    val res = CLP.prune(g, dfs(_), n => sch(dfs(n)), CLPConfig(s = 2, t = 5))
    assert(res.pruned == Set(Edge("shift", "c")))
    assert(res.graph.edges == Set(Edge("keep", "c")))
    // One pass for the pivots and one for the rows, shared by both edges.
    assert(scans.value == 2)
  }
}
