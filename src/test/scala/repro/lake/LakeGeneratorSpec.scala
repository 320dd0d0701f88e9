package repro.lake

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.{GroundTruth, R2D2, SchemaSet, TableData}
import repro.exp.Profiles
import repro.stats.StatsCatalog

class LakeGeneratorSpec extends SparkSpec {

  lazy val lake: Lake = LakeGenerator.generate(spark, Profiles.tiny(seed = 99))
  lazy val data: Map[String, TableData] =
    lake.datasets.map(d => d.name -> TableData.fromDf(d.name, d.df)).toMap

  private def cm(child: String, parent: String): Double =
    GroundTruth.containmentFraction(data(child), data(parent))

  test("dataset names are unique and non-empty") {
    val names = lake.datasets.map(_.name)
    assert(names.distinct.size == names.size)
    assert(names.forall(_.nonEmpty))
  }

  test("all datasets are flat (nested roots were flattened at ingestion)") {
    lake.datasets.foreach { d =>
      assert(d.df.schema.fields.forall(f => !f.dataType.typeName.contains("struct")),
        s"${d.name} still nested")
    }
  }

  test("the nested root family flattens to dotted tokens") {
    val nested = lake.datasets.find(_.name.endsWith("orders_nested"))
    // tiny profile has no nested family; generate one directly
    val prof = LakeProfile("nested", 5, Seq(FamilySpec("orders_nested", "n_", 100, filters = 1)))
    val l2 = LakeGenerator.generate(spark, prof)
    val root = l2.byName("n_orders_nested")
    assert(root.schema.tokens.exists(_.contains(".")), s"tokens: ${root.schema.tokens}")
    assert(root.schema.tokens.contains("n_ord.key"))
    l2.unpersist()
    assert(nested.isEmpty)
  }

  test("provenance edges reference existing datasets") {
    val names = lake.datasets.map(_.name).toSet
    lake.provenance.foreach { case (p, c) => assert(names(p) && names(c)) }
  }

  test("roots have no parent; children have recorded parents of lower depth") {
    lake.datasets.foreach { d =>
      if (d.kind == "root") assert(d.parent.isEmpty && d.depth == 0)
      else {
        assert(d.parent.isDefined)
        assert(lake.byName(d.parent.get).depth == d.depth - 1)
      }
    }
  }

  test("every filter/project/duplicate child is fully contained in its parent") {
    for (d <- lake.datasets if Seq("filter", "project", "duplicate").contains(d.kind)) {
      assert(cm(d.name, d.parent.get) == 1.0, s"${d.name} not contained in ${d.parent.get}")
    }
  }

  test("every addrows/addcols child fully contains its parent") {
    for (d <- lake.datasets if Seq("addrows", "addcols").contains(d.kind)) {
      assert(cm(d.parent.get, d.name) == 1.0, s"${d.parent.get} not contained in ${d.name}")
    }
  }

  test("noise children are NOT contained in their parent (impostors)") {
    for (d <- lake.datasets if d.kind.startsWith("noise")) {
      assert(cm(d.name, d.parent.get) < 1.0, s"${d.name} unexpectedly contained")
    }
  }

  test("filter children are non-empty") {
    for (d <- lake.datasets if d.kind == "filter")
      assert(d.df.count() > 0, s"${d.name} is empty")
  }

  test("containment is transitive along filter chains") {
    val chains = lake.datasets.filter(_.name.contains("_chain"))
    assume(chains.nonEmpty)
    chains.foreach { d =>
      // Chain children descend from the family root via provenance.
      var cur = d
      while (cur.parent.isDefined) cur = lake.byName(cur.parent.get)
      assert(cm(d.name, cur.name) == 1.0, s"${d.name} not contained in root ${cur.name}")
    }
  }

  test("generation is deterministic in the profile seed") {
    val l1 = LakeGenerator.generate(spark, Profiles.tiny(seed = 123))
    val l2 = LakeGenerator.generate(spark, Profiles.tiny(seed = 123))
    try {
      assert(l1.datasets.map(_.name) == l2.datasets.map(_.name))
      val (a, b) = (l1.byName, l2.byName)
      for (n <- l1.datasets.map(_.name)) {
        assert(a(n).df.count() == b(n).df.count(), s"$n differs")
      }
    } finally { l1.unpersist(); l2.unpersist() }
  }

  test("profiles expose the five paper corpora plus tiny") {
    for (n <- Seq("tiny", "customer1", "customer2", "customer3", "tableUnion", "kaggle"))
      assert(Profiles.byName(n).name == n)
    intercept[IllegalArgumentException](Profiles.byName("nope"))
  }

  test("bench profiles have the paper-like table counts") {
    assert(Profiles.customer1().families.size == 4)
    assert(Profiles.tableUnion().families.size == 30)
    assert(Profiles.kaggle().families.size == 14)
  }

  test("a family starts the same Spark jobs with 1 derived dataset as with 6: the root's one stats job") {
    def jobs(fam: FamilySpec): Seq[String] = {
      val (l, started) = jobDescriptions(LakeGenerator.generate(spark, LakeProfile("jobs", 17, Seq(fam))))
      assert(l.datasets.size == 1 + fam.projections + fam.duplicates + fam.addCols + fam.noiseIn)
      l.unpersist()
      started
    }
    val one = jobs(FamilySpec("lineitem", "j_", 2000, projections = 1))
    val six = jobs(FamilySpec("lineitem", "j_", 2000, projections = 2, duplicates = 1, addCols = 2, noiseIn = 1))
    assert(one == Seq("stats: compute") && six == one, (one, six))
  }

  /** Row count and two sums of the rows' xxhash64: equal for equal multisets of rows. */
  private def fingerprint(df: DataFrame): String = {
    val flat = StatsCatalog.flatten(df)
    val h = xxhash64(flat.columns.toSeq.map(SchemaSet.qcol): _*)
    val r = flat.agg(count(lit(1)), sum(pmod(h, lit(1000000007L))), sum(pmod(h, lit(998244353L)))).collect()(0)
    s"${r.getLong(0)}:${Option(r.get(1)).getOrElse(0)}:${Option(r.get(2)).getOrElse(0)}"
  }

  // Derived caches are built by their first reader, and noise children draw
  // `rand`: the rows must not depend on which reader that is. Each lake is
  // unpersisted before the next is generated, so the second cannot reuse the
  // first one's caches.
  test("derived caches hold the same rows read children first, one at a time, as built by R2D2.run's one stats job") {
    val profile = Profiles.tiny(seed = 41)
    val a = LakeGenerator.generate(spark, profile)
    val childrenFirst = try a.datasets.reverse.map(d => d.name -> fingerprint(d.df)).toMap finally a.unpersist()
    val b = LakeGenerator.generate(spark, profile)
    try {
      val (_, jobs) = jobDescriptions(R2D2.run(b.datasets.map(d => d.name -> d.df)))
      assert(jobs.count(_ == "stats: compute") == 1, jobs)
      assert(b.datasets.map(d => d.name -> fingerprint(d.df)).toMap == childrenFirst)
    } finally b.unpersist()
  }
}
