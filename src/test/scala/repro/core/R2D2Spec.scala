package repro.core

import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData, TypeMatrix}
import repro.stats.{ParquetStats, StatsCatalog, StatsOracle}
import repro.util.Par

/** The user-facing facade: hand it named DataFrames, get a containment graph. */
class R2D2Spec extends SparkSpec {

  lazy val run: R2D2Run = {
    val li = SynthData.lineitem(spark, sf = 0.0002, seed = 61).cache()
    R2D2.run(Seq(
      "li" -> li,
      "north" -> li.where(col("l_returnflag") === "N").cache(),
      "cheap" -> li.where(col("l_extendedprice") <= 30000).cache(),
      "slim" -> li.drop("l_tax", "l_discount").cache(),
      "fake" -> li.withColumn("l_quantity",
        when(rand(3) < 0.4, col("l_quantity") / 2 + 1).otherwise(col("l_quantity"))).cache(),
    ))
  }

  test("facade detects the three true containments") {
    val g = run.containmentGraph
    assert(g.edges.contains(Edge("li", "north")))
    assert(g.edges.contains(Edge("li", "cheap")))
    assert(g.edges.contains(Edge("li", "slim")))
  }

  test("facade rejects the in-range impostor") {
    assert(!run.containmentGraph.edges.contains(Edge("li", "fake")))
  }

  test("schema sets are exposed for every dataset") {
    assert(run.schemas.keySet == Set("li", "north", "cheap", "slim", "fake"))
    assert(run.schemas("slim").size == run.schemas("li").size - 2)
  }

  test("stats catalog is populated for every dataset") {
    Seq("li", "north", "cheap", "slim", "fake").foreach(n => assert(run.catalog.get(n).isDefined))
  }

  test("stage results expose pruned edges and counters") {
    assert(run.sgb.graph.edgeCount >= run.mmp.graph.edgeCount)
    assert(run.mmp.graph.edgeCount >= run.clp.graph.edgeCount)
    assert(run.mmp.opCount == run.sgb.graph.edgeCount)
  }

  test("nested input frames are flattened before the pipeline") {
    val nested = spark.range(20).select(struct(col("id").as("k")).as("s"), (col("id") * 2).as("v"))
    val r = R2D2.run(Seq("n" -> nested, "m" -> nested.limit(10)))
    assert(r.schemas("n").tokens == Set("s.k", "v"))
    assert(r.containmentGraph.edges.contains(Edge("n", "m")))
  }

  test("column and struct field names holding backticks are flattened, ingested and probed") {
    val df = spark.range(20).select((col("id") * 2).as("a`b"), struct(col("id").as("x`y")).as("s`t")).cache()
    val r = R2D2.run(Seq("p" -> df, "f" -> df.where(col("`a``b`") < 10)))
    assert(r.schemas("p").tokens == Set("a`b", "s`t.x`y"))
    assert(r.containmentGraph.edges == Set(Edge("p", "f")))
  }

  // Ingest takes the datasets' stats concurrently: more datasets than the
  // pool has threads, over the footer path (plain parquet reads) and the
  // aggregate path (filtered reads and in-memory frames, one nested).
  test("concurrent ingest over more datasets than Par.Threads gives each dataset its sequential stats, frame and schema") {
    val dirs = (0 until 4).map { i =>
      parquetDir(spark.range(40).select(col("id"), (col("id") * (i + 1)).as("v"), (col("id") % 3).cast("string").as("s")), 1 + i % 2)
    }
    val footer = dirs.zipWithIndex.map { case (d, i) => s"file$i" -> spark.read.parquet(d) }
    val filtered = dirs.zipWithIndex.map { case (d, i) => s"where$i" -> spark.read.parquet(d).where(col("id") < 10 * (i + 1)) }
    val inMemory = (0 until 4).map { i =>
      s"mem$i" -> spark.range(30).select(col("id"), struct((col("id") * (i + 1)).as("k")).as("nest"), (col("id") % 4).as("v"))
    }
    val lake = footer ++ filtered ++ inMemory
    assert(lake.size > Par.Threads)

    val (r, jobs) = jobDescriptions(R2D2.run(lake))
    val names = lake.map(_._1).toSet
    assert(r.dfs.keySet == names && r.schemas.keySet == names && r.catalog.names == names)
    for ((n, df) <- lake) {
      val flat = StatsCatalog.flatten(df)
      assert(r.catalog(n) == StatsOracle.compute(df), n)
      assert(r.schemas(n) == SchemaSet.fromStruct(df.schema), n)
      assert(r.dfs(n).schema == flat.schema, n)
      assert(r.dfs(n).collect().toSet == flat.collect().toSet, n)
    }
    // The 8 datasets off the footer path share one Spark job, described
    // `stats: compute`; the footer path runs none.
    assert(jobs.filterNot(_.startsWith("clp: ")) == Seq("stats: compute"), jobs)
    val (_, footerJobs) = jobDescriptions(R2D2.run(footer))
    assert(footerJobs.forall(_.startsWith("clp: ")), footerJobs)
  }

  private lazy val matrixParent = TypeMatrix(spark.range(60), map(lit("k"), col("id").cast("int"), lit("j"), (col("id") * 3).cast("int"))).cache()
  // The same maps, inserted in the other order.
  private lazy val matrixChild = TypeMatrix(spark.range(60), map(lit("j"), (col("id") * 3).cast("int"), lit("k"), col("id").cast("int")))
    .where(col("id") % 2 === 0).cache()

  test("type matrix: nested, array, map, binary, decimal and null columns keep a true edge") {
    val (p, c) = (matrixParent, matrixChild)
    val r = R2D2.run(Seq("p" -> p, "c" -> c))
    assert(Seq("s.inner.z", "m", "ntz").forall(r.schemas("p").tokens.contains))
    assert(r.containmentGraph.edges.contains(Edge("p", "c")))

    val st = R2D2State.fromRun(Map("p" -> p, "c" -> c), r)
    val (st1, _) = DynamicUpdates.addDataset(st, "low", p.where(col("id") < 20))
    assert(st1.graph.edges.contains(Edge("p", "low")))
  }

  test("type matrix on parquet, as 1 and as 4 files: footer stats equal computed ones, and the graph is the in-memory one") {
    val inMemory = R2D2.run(Seq("p" -> matrixParent, "c" -> matrixChild))
    val key = "spark.sql.datetime.java8API.enabled"
    try for ((parts, java8) <- Seq(1 -> "false", 4 -> "false", 4 -> "true")) {
      spark.conf.set(key, java8)
      val input = s"$parts files, java8API=$java8"
      val frames = Seq("p" -> matrixParent, "c" -> matrixChild).map { case (n, df) => n -> spark.read.parquet(parquetDir(df, parts)) }
      for ((n, df) <- frames) {
        val footer = ParquetStats.of(StatsCatalog.flatten(df)).getOrElse(fail(s"$n: a plain parquet read must take the footer path"))
        val computed = StatsOracle.compute(df)
        assert(footer.rowCount == computed.rowCount && footer.sizeBytes == computed.sizeBytes)
        for ((c, got) <- footer.cols) assert(computed.cols.get(c).contains(got), s"$n/$input, $c: footer=$got computed=${computed.cols.get(c)}")
        // Every column the aggregate reports but NaN's: its footers keep no min/max.
        assert(footer.cols.keySet == computed.cols.keySet - "nan", s"$n/$input")
      }
      val onDisk = R2D2.run(frames)
      assert(onDisk.mmp.graph == inMemory.mmp.graph, input)
      assert(onDisk.containmentGraph == inMemory.containmentGraph, input)
      assert(onDisk.containmentGraph.edges.contains(Edge("p", "c")), input)
    } finally spark.conf.unset(key)
  }

  test("maps nested in an array, in a map value or in a struct inside an array keep p → p.where(..)") {
    val v = col("id").cast("int")
    // Each shape as (parent column, child column): the child's maps hold the same entries in the other order.
    val shapes = Seq(
      "array<map>" -> (array(map(lit("k"), v, lit("j"), v * 3)), array(map(lit("j"), v * 3, lit("k"), v))),
      "map<map>" -> (map(lit("o"), map(lit("k"), v, lit("j"), lit(1))), map(lit("o"), map(lit("j"), lit(1), lit("k"), v))),
      "array<struct<map>>" -> (array(struct(map(lit("k"), v, lit("j"), lit(2)).as("m"))),
        array(struct(map(lit("j"), lit(2), lit("k"), v).as("m")))),
    )
    for ((shape, (pm, cm)) <- shapes) {
      val p = spark.range(20).select(col("id"), pm.as("x")).cache()
      val c = spark.range(20).select(col("id"), cm.as("x")).where(col("id") % 3 === 0).cache()
      val r = R2D2.run(Seq("p" -> p, "c" -> c))
      assert(r.containmentGraph.edges.contains(Edge("p", "c")), shape)
    }
  }
}
