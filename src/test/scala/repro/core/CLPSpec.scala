package repro.core

import org.apache.spark.sql.{Column, DataFrame, ExpressionColumns, Row}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{Cast, CollationAwareXxHash64, UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty

import repro.{SparkSpec, SynthData}
import repro.core.SchemaSet.qcol
import repro.lake.Transformations
import repro.stats.{NumStats, StatsCatalog, StatsOracle}

import scala.jdk.CollectionConverters._
import scala.util.Random

object CLPSpec {
  /** A column of the properties: its child type, its parent type and a pool
    * of (child value, parent value) pairs, each of which stands for one value.
    */
  private final case class Pooled(name: String, child: DataType, parent: DataType, pool: Seq[(Any, Any)]) {
    def flipped: Pooled = Pooled(name, parent, child, pool.map(_.swap))
  }
}

class CLPSpec extends SparkSpec {
  import CLPSpec.Pooled

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
    val stats = StatsOracle.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.5, inRange = true, seed = 2).cache()
    assert(check(li, noisy, CLPConfig(s = 4, t = 10)))
  }

  test("light contamination often survives weak sampling but not strong sampling") {
    val stats = StatsOracle.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.35, inRange = true, seed = 3).cache()
    // With s·t large the detection probability 1−(1−ρ)^{s·t} ≈ 1.
    assert(check(li, noisy, CLPConfig(s = 8, t = 50, seed = 4)))
  }

  // Table 6 reads its sweep as monotone: probe j's rows for a larger t
  // extend its rows for a smaller one, and the first s search columns are a
  // prefix of the first s' > s. So a larger budget never keeps an edge that
  // a smaller one pruned.
  test("pruned sets are nested in s and t: a larger budget never keeps an edge a smaller one pruned") {
    val stats = StatsOracle.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = (1 to 6).map(i => s"noisy$i" ->
      Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.05 * i, inRange = true, seed = 20 + i).cache())
    val dfs = (noisy :+ ("p" -> li)).toMap
    val g = ContainmentGraph(dfs.keys, noisy.map { case (n, _) => Edge("p", n) })
    val grid = for (s <- Seq(1, 2, 4, 8); t <- Seq(1, 2, 5, 20)) yield (s, t)
    val pruned = grid.map(st => st -> CLP.prune(g, dfs(_), n => sch(dfs(n)), CLPConfig(s = st._1, t = st._2, seed = 5)).pruned).toMap
    for ((a, pa) <- pruned; (b, pb) <- pruned if a._1 <= b._1 && a._2 <= b._2)
      assert(pa.subsetOf(pb), s"$a pruned ${pa -- pb} that $b kept")
    // The grid's corners differ, so the nesting is not vacuous.
    assert(pruned((1, 1)).size < pruned((8, 20)).size, pruned)
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

  // A child with a column its parent lacks is no containment, whatever its
  // rows: the edge is pruned with no probe.
  test("a foreign edge with no common column is pruned without a probe") {
    val res = pruneEdge(li, spark.range(5).select(col("id").as("zzz")), CLPConfig())
    assert(res.pruned == Set(Edge("p", "c")) && res.graph.edges.isEmpty && res.probeCount == 0)
  }

  test("a foreign edge whose child has one extra column is pruned without a probe") {
    val res = pruneEdge(li, li.withColumn("extra", lit(1)), CLPConfig())
    assert(res.pruned == Set(Edge("p", "c")) && res.graph.edges.isEmpty && res.probeCount == 0)
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
    val stats = StatsOracle.compute(li)
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
    val stats = StatsOracle.compute(li)
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

  // Exactness: a sampled row is looked up by its hash after its values are
  // cast to the parent's types. An int key would never find a long one
  // uncast (Spark hashes an int in 4 bytes, a long in 8). Spark's hashes
  // equate -0.0 and 0.0, so with equal types a row is found directly.
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
    // One pass draws the sample that both edges share.
    assert(scans.value == 1)
  }

  test("a UTF8_LCASE child 'A' under a parent 'a' is kept: collated strings hash by their collation key") {
    val parent = spark.range(2).select(col("id"), collate(when(col("id") === 0, lit("a")).otherwise(lit("b")), "UTF8_LCASE").as("s"))
    val child = spark.range(1).select(col("id"), collate(lit("A"), "UTF8_LCASE").as("s"))
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  // Columns that SGB matches by name but whose types Spark's `<=>` cannot
  // compare: no common type, or a string that does not parse as an int.
  // The child value is try-cast to the parent's type; an uncastable type
  // matches only null against null.
  test("a boolean child column under an int parent column is judged without an exception") {
    val parent = spark.range(4).select(col("id"), (col("id") + 5).cast("int").as("x")).cache()
    val child = spark.range(2).select(col("id"), (col("id") === 0).as("x"))
    assert(check(parent, child, CLPConfig(s = 2, t = 10)))
    val ones = spark.range(2).select(col("id"), lit(1).as("x")).cache()
    assert(!check(ones, spark.range(2).select(col("id"), lit(true).as("x")), CLPConfig(s = 2, t = 10)))
  }

  test("an array<int> child column under an int parent column matches only null against null") {
    val parent = spark.range(4).select(col("id"), when(col("id") =!= 1, col("id").cast("int")).as("x")).cache()
    val arrays = spark.range(2).select(col("id"), array(col("id").cast("int")).as("x"))
    assert(check(parent, arrays, CLPConfig(s = 2, t = 10)))
    val nulls = spark.range(1, 2).select(col("id"), lit(null).cast("array<int>").as("x"))
    assert(!check(parent, nulls, CLPConfig(s = 2, t = 10)))
  }

  test("an int child column under a string parent column holding 'abc' is judged without an exception") {
    val parent = spark.range(3).select(col("id"), when(col("id") === 0, lit("abc")).otherwise(col("id").cast("string")).as("x")).cache()
    assert(check(parent, spark.range(1).select(col("id"), col("id").cast("int").as("x")), CLPConfig(s = 2, t = 10)))
    assert(!check(parent, spark.range(1, 3).select(col("id"), col("id").cast("int").as("x")), CLPConfig(s = 2, t = 10)))
  }

  test("a string \"1\" child under an int 1 parent is kept") {
    val parent = spark.range(3).select(col("id"), col("id").cast("int").as("x")).cache()
    val child = spark.range(1, 2).select(col("id"), col("id").cast("string").as("x"))
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  // A child value that try-casts to the parent's value but changes on the
  // way (rounded, truncated) is not that value: the edge is pruned. A child
  // value the cast keeps is kept.
  Seq(
    ("decimal(12,4) 1.2345", "a decimal(10,2) 1.23", "decimal(12,4)", "1.2345", "1.2300", "decimal(10,2)", "1.23"),
    ("double 1.5", "an int 1", "double", "1.5", "1.0", "int", "1"),
    ("double 0.1", "a float 0.1f", "double", "0.1", (0.1f).toDouble.toString, "float", "0.1"),
    ("timestamp at 10:00", "its date", "timestamp", "2024-03-01 10:00:00", "2024-03-01 00:00:00", "date", "2024-03-01"),
  ).foreach { case (childName, parentName, ct, changed, kept, pt, pv) =>
    test(s"a $childName child under $parentName parent is pruned") {
      val parent = spark.range(1).select(col("id"), lit(pv).cast(pt).as("x")).cache()
      val child = (v: String) => spark.range(1).select(col("id"), lit(v).cast(ct).as("x"))
      assert(check(parent, child(changed), CLPConfig(s = 2, t = 10)))
      assert(!check(parent, child(kept), CLPConfig(s = 2, t = 10)))
    }
  }

  // The property's type matrix: each type with a small pool of values, so
  // child rows often meet parent rows. The pools hold values that are equal
  // under `<=>` but differ in their bits (-0.0 and 0.0, two NaN patterns,
  // also inside arrays and structs), strings outside the BMP and nulls.
  private val nan2 = java.lang.Double.longBitsToDouble(0x7ff8000000000abcL)
  private val floatNan2 = java.lang.Float.intBitsToFloat(0x7fc00abc)
  private val scalarPools: Seq[(DataType, Seq[Any])] = Seq(
    IntegerType -> Seq(0, 1, -7, Int.MaxValue),
    LongType -> Seq(0L, 1L, Long.MinValue),
    DoubleType -> Seq(0.0, -0.0, 1.5, Double.NaN, nan2, Double.NegativeInfinity),
    FloatType -> Seq(0.0f, -0.0f, 2.5f, Float.NaN, floatNan2),
    DecimalType(12, 4) -> Seq("0", "1.25", "-3.1416").map(new java.math.BigDecimal(_)),
    StringType -> Seq("", "a", "A", "\uD83D\uDE00", "\uFF61x"),
    BinaryType -> Seq(Array[Byte](), Array[Byte](0, 1), Array[Byte](-1)),
    BooleanType -> Seq(true, false),
    DateType -> Seq(java.sql.Date.valueOf("2020-01-01"), java.sql.Date.valueOf("1969-12-31")),
    TimestampType -> Seq("2020-01-01 00:00:00.000001", "2020-01-01 00:00:00").map(java.sql.Timestamp.valueOf),
    TimestampNTZType -> Seq(java.time.LocalDateTime.of(2020, 1, 1, 0, 0, 0, 1000), java.time.LocalDateTime.of(1999, 12, 31, 23, 59)),
  )
  private val nestedPools: Seq[(DataType, Seq[Any])] = Seq(
    ArrayType(DoubleType) -> Seq(Seq(0.0, 1.0), Seq(-0.0, 1.0), Seq(Double.NaN), Seq(nan2), Seq(null), Seq()),
    ArrayType(StructType(Seq(StructField("a", IntegerType), StructField("b", StringType)))) ->
      Seq(Seq(Row(1, "x")), Seq(Row(2, "\uD83D\uDE00")), Seq(Row(null, null))),
    MapType(StringType, IntegerType) -> Seq(Map("k" -> 1, "j" -> 2), Map("j" -> 2, "k" -> 1), Map("k" -> 3)),
    StructType(Seq(StructField("k", LongType), StructField("z", DoubleType))) -> Seq(Row(1L, -0.0), Row(1L, 0.0), Row(2L, null)),
  )

  /** The same value with other bits: -0.0 and 0.0, and the two NaN patterns, swapped at every depth. */
  private def twin(v: Any): Any = v match {
    case d: Double if d == 0.0 => -d
    case d: Double if d.isNaN  => if (java.lang.Double.doubleToRawLongBits(d) == java.lang.Double.doubleToRawLongBits(nan2)) Double.NaN else nan2
    case f: Float if f == 0.0f => -f
    case f: Float if f.isNaN   => if (java.lang.Float.floatToRawIntBits(f) == java.lang.Float.floatToRawIntBits(floatNan2)) Float.NaN else floatNan2
    case xs: Seq[_]            => xs.map(twin)
    case r: Row                => Row.fromSeq(r.toSeq.map(twin))
    case _                     => v
  }

  private def same(pools: Seq[(DataType, Seq[Any])]): Seq[Pooled] =
    pools.map { case (dt, vs) => Pooled(dt.sql, dt, dt, vs.map(v => (v, v))) }

  // Columns whose child and parent types differ, or whose equal values
  // differ in their bytes (UTF8_LCASE). Each pool holds pairs whose child
  // value casts to the parent value and back, pairs whose child value casts
  // to another value, and pairs that, read one way or the other, hold a
  // value the cast rounds, overflows or fails on.
  private val crossPools: Seq[Pooled] = {
    val dec = (pairs: Seq[(String, String)]) => pairs.map { case (c, p) => new java.math.BigDecimal(c) -> new java.math.BigDecimal(p) }
    val (ts, date, lcase) = (java.sql.Timestamp.valueOf(_: String), java.sql.Date.valueOf(_: String), StringType("UTF8_LCASE"))
    Seq(
      Pooled("int/long", IntegerType, LongType, Seq(0 -> 0L, 1 -> 1L, -7 -> -7L, Int.MaxValue -> (1L << 40))),
      Pooled("float/double", FloatType, DoubleType, Seq(2.5f -> 2.5, -0.0f -> 0.0, Float.NaN -> nan2, 0.1f -> 0.1, Float.MaxValue -> 1e300)),
      Pooled("decimal(10,2)/decimal(12,3)", DecimalType(10, 2), DecimalType(12, 3),
        dec(Seq("1.23" -> "1.230", "0" -> "0", "-5.10" -> "-5.100", "1.24" -> "1.235", "99999999.99" -> "123456789.000"))),
      Pooled("decimal(12,4)/decimal(10,2)", DecimalType(12, 4), DecimalType(10, 2),
        dec(Seq("1.2300" -> "1.23", "1.2345" -> "1.23", "0" -> "0", "-3.1400" -> "-3.14", "12345678.9012" -> "12345678.90"))),
      Pooled("date/timestamp", DateType, TimestampType, Seq(
        date("2020-01-01") -> ts("2020-01-01 00:00:00"), date("1969-12-31") -> ts("1969-12-31 00:00:00"),
        date("2020-01-01") -> ts("2020-01-01 10:00:00"))),
      Pooled("timestamp/timestamp_ntz", TimestampType, TimestampNTZType, Seq(
        ts("2020-01-01 00:00:00.000001") -> java.time.LocalDateTime.of(2020, 1, 1, 0, 0, 0, 1000),
        ts("1999-12-31 23:59:00") -> java.time.LocalDateTime.of(1999, 12, 31, 23, 59),
        ts("2020-01-01 00:00:00") -> java.time.LocalDateTime.of(2020, 1, 1, 1, 0))),
      Pooled("UTF8_LCASE/binary", lcase, StringType, Seq("a" -> "a", "A" -> "a", "b" -> "B", "\uD83D\uDE00" -> "\uD83D\uDE00", "" -> "")),
      Pooled("UTF8_LCASE/UTF8_LCASE", lcase, lcase, Seq("a" -> "A", "A" -> "a", "b" -> "b", "\uFF61x" -> "\uFF61X")),
      Pooled("string/int", StringType, IntegerType, Seq("1" -> 1, "01" -> 1, "-7" -> -7, "abc" -> 0, " 2" -> 2, "2147483648" -> Int.MaxValue)),
      Pooled("boolean/int", BooleanType, IntegerType, Seq(true -> 1, false -> 0, true -> 2)),
      Pooled("array<int>/int", ArrayType(IntegerType), IntegerType, Seq(Seq(1) -> 1, Seq() -> 0)),
      Pooled("array<int>/array<long>", ArrayType(IntegerType), ArrayType(LongType),
        Seq(Seq(1, 2) -> Seq(1L, 2L), Seq(null) -> Seq(null), Seq() -> Seq(), Seq(Int.MaxValue) -> Seq(1L << 40))),
    )
  }

  /** A parent and a child over one random set of columns, the first drawn
    * from `first` and up to three more from `rest`, each read from child to
    * parent or, half the time, the other way round. The parent's rows draw
    * pairs; the child holds the child values of some of them (their twins,
    * half the time) and up to two rows drawn afresh. Returns the child's and
    * the parent's schemas, the parent's and the child's rows, and the names
    * of the columns.
    */
  private def pairOf(first: Seq[Pooled], rest: Seq[Pooled]): Gen[(StructType, StructType, Seq[Row], Seq[Row], Seq[String])] = for {
    head <- Gen.oneOf(first)
    n <- Gen.choose(0, 3)
    tail <- Gen.listOfN(n, Gen.oneOf(rest))
    flips <- Gen.listOfN(n + 1, Gen.oneOf(true, false))
    cols = (head +: tail).zip(flips).map { case (c, flip) => if (flip) c.flipped else c }
    row = cols.foldRight(Gen.const(List.empty[(Any, Any)])) { case (c, tail) =>
      for (v <- Gen.frequency[(Any, Any)](1 -> Gen.const((null, null)), 5 -> Gen.oneOf(c.pool)); vs <- tail) yield v :: vs
    }
    parent <- Gen.choose(1, 10).flatMap(Gen.listOfN(_, row))
    kept <- Gen.someOf(parent)
    twins <- Gen.oneOf(true, false)
    fresh <- Gen.choose(if (kept.isEmpty) 1 else 0, 2).flatMap(Gen.listOfN(_, row))
  } yield {
    val schema = (side: Pooled => DataType) => StructType(cols.zipWithIndex.map { case (c, i) => StructField(s"c$i", side(c)) })
    val rows = (rs: Seq[List[(Any, Any)]], side: ((Any, Any)) => Any) => rs.map(r => Row.fromSeq(r.map(side)))
    val child = rows(kept.toSeq, _._1).map(r => if (twins) twin(r).asInstanceOf[Row] else r) ++ rows(fresh, _._1)
    (schema(_.child), schema(_.parent), rows(parent, _._2), child, cols.map(_.name))
  }
  private val samePools = same(scalarPools)
  private val verdictPair = pairOf(samePools ++ crossPools, samePools ++ same(nestedPools) ++ crossPools)

  /** The sample CLP draws from `child`, planned over `cols`. */
  private def sampled(child: DataFrame, cols: Seq[String], cfg: CLPConfig): CLP.Sample =
    CLP.sample(Seq("c"), _ => new CLP.Plan(child, cols), cfg).head

  private def frame(schema: StructType, rows: Seq[Row]): DataFrame = StatsCatalog.flatten(spark.createDataFrame(rows.asJava, schema))

  test("property: a hash miss after casting to the parent's types prunes exactly when the null-safe anti-join on the same sample does") {
    val crossNames = crossPools.map(_.name).toSet
    val (verdicts, crossed) = (scala.collection.mutable.Set.empty[Boolean], scala.collection.mutable.Set.empty[String])
    var crossCases = 0
    val prop = Prop.forAllNoShrink(verdictPair) { case (childSchema, parentSchema, parentRows, childRows, names) =>
      val (parent, child) = (frame(parentSchema, parentRows), frame(childSchema, childRows))
      val cfg = CLPConfig(s = 4, t = 10)
      val pruned = pruneEdge(parent, child, cfg).pruned.nonEmpty
      val joined = refutes(parent, sampled(child, sch(child).tokens.toSeq.sorted, cfg))
      if (names.exists(crossNames)) {
        crossCases += 1
        verdicts += pruned
        crossed ++= names.filter(crossNames)
      }
      pruned == joined
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(80).withInitialSeed(7L), prop)
    assert(res.passed, Pretty.pretty(res))
    // At least 40 cases hold a cross-typed column, every pair occurs, and
    // both verdicts occur among them, so neither side of the equality is vacuous.
    assert(crossCases >= 40 && crossed == crossNames && verdicts == Set(true, false), (crossCases, crossNames -- crossed, verdicts))
  }

  // Phase (a) as DataFrame queries, the oracle the planned pass must match;
  // phase (b)'s oracle is the null-safe join below.

  /** `CollationAwareXxHash64` of `cs` with seed 42, as a column: values
    * equal under their collation hash alike.
    */
  private def valueHash(cs: Seq[Column]): Column =
    ExpressionColumns.column(CollationAwareXxHash64(cs.map(ExpressionColumns.expression), 42L))

  /** Phase (a) as DataFrame queries, per probe: the least value hash over
    * the search column's non-null values, then the ≤ `t` smallest distinct
    * salted hashes among the rows holding it. Each salted hash stands for
    * the class of rows that have it, as their [[rowBits]]: the planned pass
    * keeps one row of each class, which one depending on the order it reads
    * them. Unequal rows can share a salted hash: -0.0 hashes as 0.0, a null
    * and an empty array both leave the hash as it was, and strings equal
    * under their collation hash alike.
    */
  private def oracleSample(child: String, df: DataFrame, tokens: Seq[String], cfg: CLPConfig): Seq[Seq[Set[Seq[Byte]]]] = {
    val cols: Seq[Column] = tokens.map(qcol)
    val schema = df.select(cols: _*).schema
    val rng = new scala.util.Random(cfg.seed ^ child.hashCode.toLong)
    val scalar = tokens.filter(c => df.schema(c).dataType match {
      case _: ArrayType | _: MapType | _: StructType => false
      case _                                         => true
    })
    val search = rng.shuffle(scalar).take(math.max(1, cfg.s))
    search.indices.map { j =>
      val salt = Seq(lit(cfg.seed), lit(child), lit(j))
      val hashed = df.select(Seq(
        when(qcol(search(j)).isNotNull, valueHash(salt :+ qcol(search(j)))).as("__value"),
        valueHash(salt ++ cols).as("__salted"),
      ) ++ cols: _*)
      val least = hashed.agg(min("__value")).head().get(0)
      if (least == null) Seq.empty
      else {
        val held = hashed.where(col("__value") === least)
        val salted = held.select("__salted").distinct().orderBy("__salted").limit(cfg.t).collect().map(_.getLong(0))
        held.where(col("__salted").isin(salted: _*)).collect().toSeq
          .groupMap(_.getLong(1))(r => rowBits(schema, Row.fromSeq(r.toSeq.drop(2)))).values.map(_.toSet).toSeq
      }
    }
  }

  /** Phase (b) as one null-safe left-semi join per sample: the indices of
    * the sample's rows that the parent holds.
    */
  private def oracleFound(parentDf: DataFrame, samples: Seq[CLP.Sample]): Seq[Set[Int]] =
    samples.map(joined(parentDf, _, "left_semi"))

  // Alg. 3's check as the paper states it, a null-safe join of the sampled
  // rows against the parent: the reference the scan's found sets and
  // verdicts must match.

  /** Does some row of `s` miss from the parent under a null-safe join on all
    * of the sample's columns?
    */
  private def refutes(parentDf: DataFrame, s: CLP.Sample): Boolean = joined(parentDf, s, "left_anti").nonEmpty

  /** The indices in `s.rows` of the rows that a null-safe `how` join
    * ("left_semi" or "left_anti") against the parent keeps, joined on all of
    * the sample's columns.
    */
  private def joined(parentDf: DataFrame, s: CLP.Sample, how: String): Set[Int] = {
    val toRow = CatalystTypeConverters.createToScalaConverter(s.schema)
    val rows = s.rows.zipWithIndex.map { case (r, i) => Row.fromSeq(i +: toRow(r).asInstanceOf[Row].toSeq) }
    val sampled = spark.createDataFrame(rows.asJava, StructType(StructField("__row", IntegerType) +: s.schema.fields)).alias("l")
    val parentSide = parentDf.select(s.schema.fieldNames.toSeq.map(qcol): _*).alias("r")
    val cond = s.schema.fieldNames.toSeq.map { t =>
      sameValue(col(s"l.`$t`"), s.schema(t).dataType, col(s"r.`$t`"), parentSide.schema(t).dataType)
    }.reduce(_ && _)
    // Tables here are small in absolute terms; hint the join so the
    // globally-disabled auto-broadcast does not force a full shuffle.
    sampled.join(parentSide.hint("broadcast"), cond, how).select(col("l.__row")).collect().map(_.getInt(0)).toSet
  }

  /** Null-safe equality of child value `c` (type `ct`) and parent value `p`
    * (type `pt`). Where the types differ, `<=>` fails on types with no common
    * one (boolean vs int) and on a string that does not parse, so `c` is
    * try-cast to `pt` and matches only if it casts back to itself: a value
    * the cast rounds (double 1.5 to int 1) or fails on matches nothing. Where
    * Spark cannot cast between the types (an array and a scalar), only nulls match.
    */
  private def sameValue(c: Column, ct: DataType, p: Column, pt: DataType): Column =
    if (ct == pt) c <=> p
    else if (Cast.canTryCast(ct, CLP.nullable(pt)) && Cast.canTryCast(pt, CLP.nullable(ct))) {
      val cp = c.try_cast(CLP.nullable(pt))
      cp <=> p && cp.try_cast(CLP.nullable(ct)) <=> c
    } else c.isNull && p.isNull

  /** A row of `schema` as bytes that compare bit for bit, so -0.0 and 0.0
    * differ. NaNs compare in one pattern: the oracle collects its rows as
    * Java-serialized task results, which write every NaN canonically, and
    * no Spark comparison tells NaN patterns apart.
    */
  private def rowBits(schema: StructType, r: Row): Seq[Byte] = {
    def canonical(v: Any): Any = v match {
      case d: Double if d.isNaN => Double.NaN
      case f: Float if f.isNaN  => Float.NaN
      case xs: Seq[_]           => xs.map(canonical)
      case r: Row               => Row.fromSeq(r.toSeq.map(canonical))
      case _                    => v
    }
    val toCatalyst = CatalystTypeConverters.createToCatalystConverter(schema)
    UnsafeProjection.create(schema)(toCatalyst(canonical(r)).asInstanceOf[InternalRow]).getBytes.toSeq
  }

  /** Does `s` draw, in each probe, exactly one row of each class the oracle
    * gives for it, bit for bit, and no other row?
    */
  private def draws(s: CLP.Sample, oracle: Seq[Seq[Set[Seq[Byte]]]]): Boolean = {
    val toRow = CatalystTypeConverters.createToScalaConverter(s.schema)
    val drawn = s.probes.map(_.map(r => rowBits(s.schema, toRow(r).asInstanceOf[Row])))
    drawn.size == oracle.size && drawn.zip(oracle).forall { case (got, classes) =>
      got.size == classes.size && classes.forall(c => got.count(c) == 1)
    }
  }

  private val lcasePool: (DataType, Seq[Any]) = StringType("UTF8_LCASE") -> Seq("a", "A", "b", "\uD83D\uDE00", "")

  // Each frame shape changes what `queryExecution.toRdd` runs: one or seven
  // partitions (a round-robin exchange), an in-memory relation, and an
  // aggregate over a hash exchange.
  private val shapes: Seq[(String, DataFrame => DataFrame)] = Seq(
    "1 partition" -> (_.repartition(1)),
    "7 partitions" -> (_.repartition(7)),
    "cached" -> (_.cache()),
    "an exchange" -> (_.distinct()),
  )

  test("property: planned phases draw the DataFrame oracle's probe keys and rows and find its hashes") {
    val gen = for {
      pair <- pairOf(same(scalarPools :+ lcasePool), same(scalarPools ++ nestedPools :+ lcasePool) ++ crossPools)
      shape <- Gen.oneOf(shapes)
      t <- Gen.choose(1, 4)
      seed <- Gen.choose(0L, 1000L)
    } yield (pair, shape, CLPConfig(s = 4, t = t, seed = seed))
    val seen = scala.collection.mutable.Set.empty[String]
    val prop = Prop.forAllNoShrink(gen) { case ((childSchema, parentSchema, parentRows, childRows, _), (shape, reshape), cfg) =>
      val (parent, child) = (reshape(frame(parentSchema, parentRows)), reshape(frame(childSchema, childRows)))
      val tokens = sch(child).tokens.toSeq.sorted
      val (expected, actual) = (oracleSample("c", child, tokens, cfg), sampled(child, tokens, cfg))
      seen += shape
      // `rows` are the probes' rows, distinct by their bytes
      val bytes = (r: InternalRow) => r.asInstanceOf[UnsafeRow].getBytes.toSeq
      val same = draws(actual, expected) && actual.rows.map(bytes) == actual.probes.flatten.map(bytes).distinct &&
        CLP.foundRows(Seq(new CLP.Plan(parent, tokens) -> actual)) == oracleFound(parent, Seq(actual))
      // Spark's cache manager serves a new frame from an earlier cached one
      // whose rows are equal as values, two NaN patterns included; dropping
      // each case's frames keeps every case reading its own rows.
      Seq(parent, child).foreach(_.unpersist())
      same
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(11L), prop)
    assert(res.passed, Pretty.pretty(res))
    assert(seen == shapes.map(_._1).toSet)
  }

  test("a UTF8_LCASE pivot matches its column's rows under the collation, as the oracle's === does") {
    val rows = Seq(Row(1, "a"), Row(2, "A"), Row(3, "b"), Row(4, "B"), Row(5, "a"))
    val schema = StructType(Seq(StructField("n", IntegerType), StructField("s", StringType("UTF8_LCASE"))))
    val child = spark.createDataFrame(rows.asJava, schema)
    val drawn = (0L until 8L).map { seed =>
      val cfg = CLPConfig(s = 2, t = 10, seed = seed)
      val (expected, actual) = (oracleSample("c", child, Seq("n", "s"), cfg), sampled(child, Seq("n", "s"), cfg))
      assert(draws(actual, expected), s"seed $seed")
      val probes = actual.probes.map(_.map(r => r.getInt(0) -> r.getUTF8String(1).toString).toSet)
      // A probe that draws two rows searched `s`: it drew every row equal
      // to its pivot under the collation, as `===` finds them.
      for (p <- probes if p.size > 1) {
        val equal = child.where(col("s") === lit(p.head._2)).collect().map(r => r.getInt(0) -> r.getString(1)).toSet
        assert(p == equal, s"seed $seed")
      }
      probes.map(_.map(_._2))
    }
    // Some probe's pivot is "a" or "b" in one case and draws the other case too.
    assert(drawn.flatten.exists(vs => vs.size > 1 && vs.map(_.toLowerCase).size == 1), drawn)
  }

  private lazy val lake = Map(
    "p" -> li,
    "filt" -> li.where(col("l_quantity") <= 25),
    "bad" -> li.withColumn("l_quantity", col("l_quantity") + 1000),
    "flagN" -> li.where(col("l_returnflag") === "N"),
    "flagR" -> li.where(col("l_returnflag") === "R"),
  )
  private val lakeEdges = Seq(Edge("p", "filt"), Edge("p", "bad"), Edge("flagN", "flagR"), Edge("p", "flagR"))

  test("one sampling call over many children and one scan over many parents match the oracle group by group") {
    val cfg = CLPConfig(s = 2, t = 5, seed = 3)
    val children = lakeEdges.map(_.child).distinct
    val plans = lake.map { case (n, df) => n -> new CLP.Plan(df, df.columns.toSeq.sorted) }
    val samples = children.zip(CLP.sample(children, plans, cfg)).toMap
    children.foreach(c => assert(draws(samples(c), oracleSample(c, lake(c), sch(lake(c)).tokens.toSeq.sorted, cfg)), c))
    val scans = lakeEdges.map(e => (plans(e.parent), samples(e.child)))
    val found = CLP.foundRows(scans)
    lakeEdges.zip(scans).zip(found).foreach { case ((e, (_, s)), hit) =>
      assert(hit == oracleFound(lake(e.parent), Seq(s)).head, e)
    }
  }

  test("2 CLP jobs for any number of children and parents: 1 to sample, 1 to scan") {
    Seq(Seq(Edge("p", "bad")), lakeEdges).foreach { edges =>
      val g = ContainmentGraph(lake.keys, edges)
      val (res, jobs) = jobDescriptions(CLP.prune(g, lake(_), n => sch(lake(n)), CLPConfig(s = 2, t = 5)))
      assert(res.pruned.contains(Edge("p", "bad")) && !res.pruned.contains(Edge("p", "filt")))
      assert(jobs == Seq("clp: sample", "clp: scan"), jobs)
    }
  }

  test("2 CLP jobs decide same-typed and cross-typed edges alike: int vs long, UTF8_LCASE and decimal scales") {
    val parent = spark.range(10).select(
      col("id"),
      (col("id") * 2).as("twice"),
      collate(when(col("id") % 2 === 0, lit("a")).otherwise(lit("b")), "UTF8_LCASE").as("s"),
      (col("id") / 4).cast("decimal(10,2)").as("d"),
    ).cache()
    val lcase = spark.createDataFrame(Seq((0L, "A"), (3L, "B"))).toDF("id", "s").select(col("id"), collate(col("s"), "UTF8_LCASE").as("s"))
    val decimal = (v: String) => spark.range(5, 6).select(col("id"), lit(v).cast("decimal(12,4)").as("d"))
    val dfs = Map(
      "p" -> parent,
      "same" -> spark.createDataFrame(Seq((1L, 3L))).toDF("id", "twice"),
      "int" -> spark.createDataFrame(Seq((1, 3L))).toDF("id", "twice"),
      "lcase" -> lcase,
      "decimal" -> decimal("1.2500"),
      "rounded" -> decimal("1.2540"),
    )
    val g = ContainmentGraph(dfs.keys, (dfs.keySet - "p").toSeq.map(Edge("p", _)))
    val (res, jobs) = jobDescriptions(CLP.prune(g, dfs(_), n => sch(dfs(n)), CLPConfig(s = 2, t = 10)))
    assert(res.pruned == Set("same", "int", "rounded").map(Edge("p", _)))
    assert(jobs == Seq("clp: sample", "clp: scan"), jobs)
  }

  // The cast runs in the session time zone, as the analyzer's try_cast does.
  test("a date child under a timestamp parent matches the date's midnight in the session time zone") {
    val key = "spark.sql.session.timeZone"
    val old = spark.conf.getOption(key)
    spark.conf.set(key, "America/Los_Angeles")
    try {
      val cfg = CLPConfig(s = 2, t = 10)
      val child = spark.range(1).select(col("id"), lit("2024-03-01").cast("date").as("x"))
      val parent = (ts: String) => spark.range(1).select(col("id"), lit(ts).cast("timestamp").as("x"))
      val (local, utc) = (parent("2024-03-01 00:00:00"), parent("2024-03-01 00:00:00Z"))
      assert(!check(local, child, cfg))
      assert(check(utc, child, cfg))
      val drawn = sampled(child, Seq("id", "x"), cfg)
      assert(!refutes(local, drawn))
      assert(refutes(utc, drawn))
    } finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }
}
