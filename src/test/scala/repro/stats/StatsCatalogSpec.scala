package repro.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData, TypeMatrix}
import repro.core.{Edge, R2D2}

class StatsCatalogSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.001, seed = 3).cache()

  /** The program's stats of `df`: one pass over its flattened rows. */
  private def stats(df: DataFrame): DatasetStats = StatsCatalog.scan(Seq(StatsCatalog.flatten(df))).head

  test("computed min/max agree with the DuckDB oracle on numeric columns") {
    val agg = li.agg(
      min("l_quantity").as("min_q"), max("l_quantity").as("max_q"),
      min("l_extendedprice").as("min_p"), max("l_extendedprice").as("max_p"),
    )
    Oracle.assertEquivalent(
      agg,
      """SELECT min(CAST(l_quantity AS DOUBLE)) AS min_q, max(CAST(l_quantity AS DOUBLE)) AS max_q,
        |       min(CAST(l_extendedprice AS DOUBLE)) AS min_p, max(CAST(l_extendedprice AS DOUBLE)) AS max_p
        |FROM lineitem""".stripMargin,
      "lineitem" -> li,
    )
    val s = stats(li)
    val row = agg.collect()(0)
    assert(s.cols("l_quantity") == NumStats(row.getDouble(0), row.getDouble(1)))
    assert(s.cols("l_extendedprice") == NumStats(row.getDouble(2), row.getDouble(3)))
  }

  test("compute's jobs are described `stats: compute`, and the caller's description comes back") {
    val (sc, df) = (spark.sparkContext, li)
    val ((_, after), jobs) = jobDescriptions {
      sc.setJobDescription("caller")
      (stats(df), sc.getLocalProperty("spark.job.description"))
    }
    assert(jobs == Seq("stats: compute"), jobs)
    assert(after == "caller")
  }

  test("row count matches the DuckDB oracle") {
    val cnt = li.agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(cnt, "SELECT count(*) AS n FROM lineitem", "lineitem" -> li)
    assert(stats(li).rowCount == li.count())
  }

  test("string columns get lexicographic StrStats") {
    val s = stats(li)
    val flags = li.select("l_returnflag").distinct().collect().map(_.getString(0)).sorted
    assert(s.cols("l_returnflag") == StrStats(flags.head, flags.last))
  }

  test("date columns canonicalize to epoch days") {
    val s = stats(li)
    val r = li.agg(min("l_shipdate"), max("l_shipdate")).collect()(0)
    val expected = NumStats(
      r.getDate(0).toLocalDate.toEpochDay.toDouble,
      r.getDate(1).toLocalDate.toEpochDay.toDouble,
    )
    assert(s.cols("l_shipdate") == expected)
  }

  test("nested schemas flatten to dotted tokens with correct stats") {
    val nested = spark.range(1, 11).select(
      struct(col("id").as("key"), (col("id") * 2).as("twice")).as("pair"),
      lit("z").as("tag"),
    )
    val s = stats(nested)
    assert(s.cols.keySet == Set("pair.key", "pair.twice", "tag"))
    assert(s.cols("pair.key") == NumStats(1, 10))
    assert(s.cols("pair.twice") == NumStats(2, 20))
  }

  test("flatten produces a flat DataFrame with token column names") {
    val nested = spark.range(3).select(struct(col("id").as("k")).as("s"), col("id"))
    val flat = StatsCatalog.flatten(nested)
    assert(flat.columns.toSeq == Seq("s.k", "id"))
    assert(flat.schema.fields.forall(!_.dataType.typeName.contains("struct")))
  }

  test("flatten keeps arrays whole and projects a map as its sorted entries") {
    val kj = spark.range(3).select(array(col("id")).as("xs"), map(lit("k"), col("id"), lit("j"), lit(0L)).as("m"))
    val jk = spark.range(3).select(array(col("id")).as("xs"), map(lit("j"), lit(0L), lit("k"), col("id")).as("m"))
    val flat = StatsCatalog.flatten(kj)
    assert(flat.columns.toSeq == Seq("xs", "m"))
    assert(flat.schema("m").dataType.typeName == "array")
    assert(flat.collect().toSeq == StatsCatalog.flatten(jk).collect().toSeq)
  }

  test("empty DataFrame yields zero rows and no column stats") {
    val empty = li.where(lit(false))
    val s = stats(empty)
    assert(s.rowCount == 0)
    assert(s.cols.isEmpty)
  }

  test("all-null column yields no stats for that column") {
    val df = spark.range(5).select(col("id"), lit(null).cast("double").as("hole"))
    val s = stats(df)
    assert(!s.cols.contains("hole"))
    assert(s.cols.contains("id"))
  }

  test("catalog ingestion caches and serves by name") {
    val cat = new StatsCatalog
    val flat = cat.ingest("li", li)
    assert(flat.schema == StatsCatalog.flatten(li).schema)
    assert(cat("li") == StatsOracle.compute(li))
    assert(cat.get("nope").isEmpty)
    intercept[NoSuchElementException](cat("nope"))
    cat.remove("li")
    assert(cat.get("li").isEmpty)
  }

  test("sizeBytes scales with row count") {
    val small = stats(li.limit(10))
    val big = stats(li)
    assert(big.sizeBytes > small.sizeBytes)
    assert(small.sizeBytes > 0)
  }

  // A parent on parquet and, on files of their own, rows it holds (id < 50)
  // and rows it lacks: any frame over the latter files has a wider range
  // than its rows.
  private lazy val parentDir = parquetDir(spark.range(50).select(col("id"), (col("id") * 3).as("v")))
  private lazy val wideDir = parquetDir(spark.range(100).select(col("id"), (col("id") * 3).as("v")), parts = 2)

  test("a plain or cached parquet read takes the footer path") {
    val df = spark.read.parquet(parentDir)
    assert(ParquetStats.of(StatsCatalog.flatten(df)).contains(StatsOracle.compute(df)))
    assert(ParquetStats.of(StatsCatalog.flatten(df.cache())).isDefined)
    assert(ParquetStats.of(StatsCatalog.flatten(df.select(struct(col("id")).as("s"), col("v")))).isEmpty) // a derived struct
    df.unpersist()
  }

  test("a where child of parquet files takes the aggregate path and keeps its edge") {
    val child = spark.read.parquet(wideDir).where(col("id") < 50)
    assert(ParquetStats.of(StatsCatalog.flatten(child)).isEmpty)
    val parent = spark.read.parquet(parentDir)
    assert(R2D2.run(Seq("p" -> parent, "c" -> child)).containmentGraph.edges.contains(Edge("p", "c")))
  }

  // Spark stores proleptic Gregorian days and micros; `java.sql` values
  // rebase to the hybrid Julian calendar, `java.time` values do not. A
  // year-1000 timestamp and the ten dates that calendar skips (1582-10-05..14)
  // tell the two apart.
  test("a where child of a parquet parent with pre-Gregorian dates and timestamps gets its parent's stats and keeps both edges, with or without the java.time API") {
    val p = spark.read.parquet(parquetDir(spark.range(10).select(
      col("id"),
      date_from_unix_date(col("id").cast("int") - 141437).as("d"),
      timestamp_micros(col("id") * 1500 - 30610224000000000L).as("ts"),
    )))
    val c = p.where(col("id") >= 0)
    assert(ParquetStats.of(StatsCatalog.flatten(c)).isEmpty)
    val key = "spark.sql.datetime.java8API.enabled"
    try for (java8 <- Seq("false", "true")) {
      spark.conf.set(key, java8)
      val footer = ParquetStats.of(StatsCatalog.flatten(p)).getOrElse(fail("a plain parquet read must take the footer path"))
      assert(footer == stats(c), s"java8API=$java8")
      assert(footer.cols("d") == NumStats(-141437, -141428), s"java8API=$java8")
      assert(footer.cols("ts") == NumStats(-30610224000000.0, -30610223999987.0), s"java8API=$java8") // the last, 13.5 ms in, floors to 13
      val edges = R2D2.run(Seq("p" -> p, "c" -> c)).containmentGraph.edges
      assert(edges.contains(Edge("p", "c")) && edges.contains(Edge("c", "p")), s"java8API=$java8: $edges")
    } finally spark.conf.unset(key)
  }

  test("a union child of parquet reads takes the aggregate path and keeps its edge") {
    val lo = spark.read.parquet(parquetDir(spark.range(20).select(col("id"), (col("id") * 3).as("v"))))
    val child = lo.union(spark.read.parquet(wideDir).where(col("id").between(20, 49)))
    assert(ParquetStats.of(StatsCatalog.flatten(child)).isEmpty && ParquetStats.of(StatsCatalog.flatten(lo.union(lo))).isEmpty)
    val parent = spark.read.parquet(parentDir)
    assert(R2D2.run(Seq("p" -> parent, "c" -> child)).containmentGraph.edges.contains(Edge("p", "c")))
  }

  test("ingest of a plain parquet read runs no Spark job") {
    val df = spark.read.parquet(parquetDir(li, parts = 4))
    val cat = new StatsCatalog
    val (_, jobs) = jobDescriptions(cat.ingest("li", df))
    assert(jobs.isEmpty, jobs)
    assert(cat("li").rowCount == li.count())
  }

  // With the java.time API on, `collect` returns LocalDate and Instant for
  // dates and timestamps; the aggregate path, which an in-memory frame
  // takes, must give the same stats either way.
  test("dates and pre-1970 sub-millisecond timestamps get the same stats with the java.time API, and keep p → p.where(..)") {
    val p = spark.range(6).select(
      col("id"),
      date_from_unix_date(col("id").cast("int") - 2).as("d"),
      timestamp_micros(col("id") * 1500 - 2500).as("ts"),
    )
    val expected = stats(p)
    assert(expected.cols("d") == NumStats(-2, 3))
    assert(expected.cols("ts") == NumStats(-3, 5)) // -2.5 ms floors to -3
    val key = "spark.sql.datetime.java8API.enabled"
    spark.conf.set(key, "true")
    try {
      assert(stats(p) == expected)
      assert(R2D2.run(Seq("p" -> p, "c" -> p.where(col("id") % 2 === 0))).containmentGraph.edges.contains(Edge("p", "c")))
    } finally spark.conf.unset(key)
  }

  /** Equal stats, a NaN bound equal to a NaN bound: MMP compares bounds as
    * numbers, so -0.0 and 0.0 are one bound.
    */
  private def same(a: DatasetStats, b: DatasetStats): Boolean = {
    def eq(x: Double, y: Double) = x == y || (x.isNaN && y.isNaN)
    a.rowCount == b.rowCount && a.sizeBytes == b.sizeBytes && a.cols.keySet == b.cols.keySet && a.cols.forall {
      case (c, NumStats(lo, hi)) => b.cols(c) match {
        case NumStats(l, h) => eq(lo, l) && eq(hi, h)
        case _              => false
      }
      case (c, st) => b.cols(c) == st
    }
  }

  // The stats-bearing columns of the type matrix, with the two all-null
  // ones (`nothing` and `hole`) left out.
  private val matrixStats = Set("id", "s.k", "s.inner.z", "dec", "dec2", "ts", "oldts", "gap", "nan", "negz", "astral", "sometimes")

  test("property: one pass over many frames gives each the SQL aggregate's stats on every column of the type matrix, at 1 and 7 partitions, with or without the java.time API") {
    val key = "spark.sql.datetime.java8API.enabled"
    try for (parts <- Seq(1, 7); java8 <- Seq("false", "true")) {
      spark.conf.set(key, java8)
      val matrix = TypeMatrix(spark.range(0, 60, 1, parts), map(lit("k"), col("id").cast("int"), lit("j"), (col("id") * 3).cast("int")))
        .withColumn("hole", lit(null).cast("double"))
      val frames = Seq(
        "matrix" -> matrix,
        "even" -> matrix.where(col("id") % 2 === 0),
        "first5" -> matrix.where(col("id") < 5), // at 7 partitions, six of them empty
        "no rows" -> matrix.where(col("id") < 0),
        "empty plan" -> matrix.where(lit(false)),
      )
      val input = s"$parts partitions, java8API=$java8"
      val (got, jobs) = jobDescriptions(StatsCatalog.scan(frames.map(f => StatsCatalog.flatten(f._2))))
      assert(jobs == Seq("stats: compute"), s"$input: $jobs")
      for (((n, df), st) <- frames.zip(got)) {
        val oracle = StatsOracle.compute(df)
        assert(same(st, oracle), s"$n, $input: pass $st, oracle $oracle")
      }
      assert(got.head.cols.keySet == matrixStats, input)
      assert(got.map(_.rowCount) == Seq(60, 30, 5, 0, 0), input)
    } finally spark.conf.unset(key)
  }
}
