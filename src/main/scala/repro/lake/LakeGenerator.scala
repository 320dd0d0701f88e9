package repro.lake

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.core.SchemaSet
import repro.stats.{NumStats, StatsCatalog}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** One table in a synthetic lake, with its generation provenance.
  *
  * `parent`/`kind` replay the paper's §5.1 assumption that transformations
  * between datasets are known (there via human input, here via the
  * generator) — the optimization stage consumes exactly this information.
  */
final case class LakeDataset(
    name: String,
    df: DataFrame,
    schema: SchemaSet,
    kind: String,
    parent: Option[String],
    depth: Int,
)

/** A generated synthetic data lake. */
final case class Lake(name: String, datasets: Seq[LakeDataset]) {
  lazy val byName: Map[String, LakeDataset] = datasets.map(d => d.name -> d).toMap
  def schemas: Seq[(String, SchemaSet)] = datasets.map(d => d.name -> d.schema)
  /** Known-transformation edges (parent → child), for §5.1 pre-processing. */
  def provenance: Seq[(String, String)] = datasets.flatMap(d => d.parent.map(_ -> d.name))
  def unpersist(): Unit = datasets.foreach(_.df.unpersist())
}

/** How many derived tables of each kind to hang off one root table. */
final case class FamilySpec(
    root: String,
    prefix: String,
    rootRows: Long,
    filters: Int = 0,
    projections: Int = 0,
    addRows: Int = 0,
    addCols: Int = 0,
    noiseIn: Int = 0,
    noiseOut: Int = 0,
    duplicates: Int = 0,
    chainLen: Int = 0,
)

/** A lake profile = "customer org": a set of families plus noise knobs.
  *
  * @param noiseRho     fraction of rows perturbed by noise children — this is
  *                     the ε of Theorem 4.2 and controls how hard CLP has to
  *                     work (small ε → residual incorrect edges, as in the
  *                     paper's Tables 1/2/6)
  * @param addRowsFrac  novel-row fraction for add-rows children
  */
final case class LakeProfile(
    name: String,
    seed: Long,
    families: Seq[FamilySpec],
    noiseRho: Double = 0.10,
    addRowsFrac: Double = 0.03,
)

/** Builds a synthetic lake following the paper's recipe (§6.1.1): root
  * tables (TPC-H-lite via [[SynthData]], optionally column-renamed to vary
  * the schema-similarity distribution across "customer orgs", Fig. 2), then
  * chains of WHERE-filters, projections, added rows/columns and noise.
  */
object LakeGenerator {

  /** Root builders. `rows` scales via the SynthData scale factor. */
  private def rootDf(spark: SparkSession, kind: String, rows: Long, seed: Long): DataFrame = kind match {
    case "lineitem" => SynthData.lineitem(spark, rows / 6e6, seed)
    case "orders"   => SynthData.orders(spark, rows / 1.5e6, seed)
    case "customer" => SynthData.customer(spark, rows / 1.5e5, seed)
    case "part"     => SynthData.part(spark, rows / 2e5, seed)
    case "orders_nested" =>
      // A tree-schema root, exercising SGB's schema flattening (§4.1 step 1).
      val o = SynthData.orders(spark, rows / 1.5e6, seed)
      o.select(
        struct(col("o_orderkey").as("key"), col("o_custkey").as("cust")).as("ord"),
        struct(col("o_totalprice").as("total"), col("o_orderdate").as("date")).as("fin"),
        col("o_orderstatus"),
      )
    case other => throw new IllegalArgumentException(s"unknown root kind $other")
  }

  def generate(spark: SparkSession, profile: LakeProfile): Lake = {
    // Families are independent: each gets its own deterministic RNG so they
    // can be generated concurrently without losing reproducibility.
    val all = repro.util.Par.map(profile.families.zipWithIndex.toSeq) { case (fam, i) =>
      generateFamily(spark, profile, fam, profile.seed + 1000L * i)
    }
    Lake(profile.name, all.flatten)
  }

  private def generateFamily(
      spark: SparkSession,
      profile: LakeProfile,
      fam: FamilySpec,
      seed: Long,
  ): Seq[LakeDataset] = {
    val rng = new Random(seed)
    val out = ArrayBuffer.empty[LakeDataset]
    val zipf = new Zipf(10, 1.5)

    {
      val famName = s"${fam.prefix}${fam.root}"
      // Flatten nested roots at ingestion; rename to the family prefix so
      // different families have disjoint (or deliberately shared) schemas.
      val raw = StatsCatalog.flatten(rootDf(spark, fam.root, fam.rootRows, seed))
      val root = raw.toDF(raw.columns.map(c => s"${fam.prefix}$c").toIndexedSeq: _*).cache()
      out += LakeDataset(famName, root, SchemaSet.fromStruct(root.schema), "root", None, 0)

      // One Spark job takes the root's stats and builds its cache.
      val rootStats = StatsCatalog.scan(Seq(root)).head
      val strCols = Transformations.stringColumns(root)
      val dblCols = Transformations.doubleColumns(root)
      val topValues = scala.collection.mutable.Map.empty[String, Seq[Any]]
      def valuesOf(c: String): Seq[Any] = topValues.getOrElseUpdate(c,
        root.groupBy(SchemaSet.qcol(c)).count()
          .orderBy(desc("count"), SchemaSet.qcol(c))
          .limit(12).collect().map(_.get(0)).toSeq)

      // A derived frame's cache is built by its first reader.
      def register(name: String, df: DataFrame, kind: String, parent: String, depth: Int): LakeDataset = {
        val cached = df.cache()
        val d = LakeDataset(name, cached, SchemaSet.fromStruct(cached.schema), kind, Some(parent), depth)
        out += d
        d
      }

      def mkFilter(parentDs: LakeDataset, name: String): LakeDataset = {
        val useCat = strCols.nonEmpty && rng.nextBoolean()
        val child =
          if (useCat) {
            val c = strCols(rng.nextInt(strCols.size))
            Transformations.filterBy(parentDs.df, c, valuesOf(c), zipf, rng)
          } else {
            val c = dblCols(rng.nextInt(dblCols.size))
            val NumStats(lo, hi) = rootStats.cols(c).asInstanceOf[NumStats]
            Transformations.filterRange(parentDs.df, c, lo, hi, 0.25 + rng.nextDouble() * 0.6)
          }
        register(name, child, "filter", parentDs.name, parentDs.depth + 1)
      }

      val rootDs = out.last
      val filterChildren = ArrayBuffer.empty[LakeDataset]
      for (i <- 0 until fam.filters)
        filterChildren += mkFilter(rootDs, s"${famName}_filter$i")

      // A filter chain off the root: a line graph in the provenance sense.
      var chainParent = rootDs
      for (i <- 0 until fam.chainLen)
        chainParent = mkFilter(chainParent, s"${famName}_chain$i")

      def somePier(): LakeDataset =
        if (filterChildren.nonEmpty && rng.nextDouble() < 0.3)
          filterChildren(rng.nextInt(filterChildren.size))
        else rootDs

      for (i <- 0 until fam.projections) {
        val p = somePier()
        val cols = p.df.columns.toSeq
        val nDrop = math.max(1, math.min(cols.size - 3, 1 + rng.nextInt(3)))
        val drop = rng.shuffle(cols).take(nDrop)
        register(s"${famName}_project$i", Transformations.project(p.df, drop), "project", p.name, p.depth + 1)
      }

      for (i <- 0 until fam.addRows) {
        val p = somePier()
        val k = math.max(1, (p.df.count() * profile.addRowsFrac).toInt)
        register(s"${famName}_addrows$i", Transformations.addRows(spark, p.df, k, rng), "addrows", p.name, p.depth + 1)
      }

      for (i <- 0 until fam.addCols) {
        val p = somePier()
        register(s"${famName}_addcols$i",
          Transformations.addDerivedColumns(p.df, 1 + rng.nextInt(2), famName + i, rng),
          "addcols", p.name, p.depth + 1)
      }

      def mkNoise(i: Int, inRange: Boolean): Unit = {
        val p = rootDs
        val c = dblCols(rng.nextInt(dblCols.size))
        val NumStats(lo, hi) = rootStats.cols(c).asInstanceOf[NumStats]
        val kind = if (inRange) "noise-in" else "noise-out"
        register(s"${famName}_$kind$i",
          Transformations.noise(p.df, c, lo, hi, profile.noiseRho, inRange, seed + i),
          kind, p.name, p.depth + 1)
      }
      (0 until fam.noiseIn).foreach(mkNoise(_, inRange = true))
      (0 until fam.noiseOut).foreach(mkNoise(_, inRange = false))

      for (i <- 0 until fam.duplicates) {
        val p = somePier()
        register(s"${famName}_dup$i", Transformations.duplicate(p.df), "duplicate", p.name, p.depth + 1)
      }
    }
    out.toSeq
  }
}
