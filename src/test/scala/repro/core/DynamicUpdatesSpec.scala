package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import scala.collection.mutable

import repro.{SparkSpec, SynthData}
import repro.exp.Profiles
import repro.lake.LakeGenerator

/** §7.1 dynamic updates: incremental maintenance must agree with a full
  * pipeline recompute, at linear cost.
  */
class DynamicUpdatesSpec extends SparkSpec {

  private def smallLake(): Map[String, DataFrame] = {
    val li = SynthData.lineitem(spark, sf = 0.0002, seed = 31).cache()
    val filt = li.where(col("l_returnflag") === "N").cache()
    val proj = li.drop("l_tax").cache()
    Map("li" -> li, "filt" -> filt, "proj" -> proj)
  }

  private def freshState() = {
    val datasets = smallLake()
    val run = R2D2.run(datasets.toSeq.sortBy(_._1))
    (datasets, R2D2State.fromRun(datasets, run))
  }

  /** The incremental graph equals a full run over the final lake. */
  private def assertMatchesRun(st: R2D2State, lake: Map[String, DataFrame]): Unit = {
    val full = R2D2.run(lake.toSeq.sortBy(_._1))
    assert(st.graph.edges == full.containmentGraph.edges,
      s"incremental=${st.graph.edges} full=${full.containmentGraph.edges}")
  }

  test("initial run detects the two true containment edges") {
    val (_, st) = freshState()
    assert(st.graph.edges.contains(Edge("li", "filt")))
    assert(st.graph.edges.contains(Edge("li", "proj")))
  }

  test("addDataset of a new filter child creates its incoming edges incrementally") {
    val (datasets, st0) = freshState()
    val newChild = datasets("li").where(col("l_returnflag") === "R").cache()
    val (st1, examined) = DynamicUpdates.addDataset(st0, "newFilt", newChild)
    assert(st1.graph.edges.contains(Edge("li", "newFilt")))
    assert(!st1.graph.edges.contains(Edge("newFilt", "li")))
    assert(examined <= 2L * st0.schemas.size, "must stay linear in dataset count")
  }

  test("addDataset matches a full recompute on the enlarged lake") {
    val (datasets, st0) = freshState()
    val newChild = datasets("li").where(col("l_quantity") <= 20).cache()
    val (st1, _) = DynamicUpdates.addDataset(st0, "q20", newChild)
    val full = R2D2.run((datasets + ("q20" -> newChild)).toSeq.sortBy(_._1))
    assert(st1.graph.edges == full.containmentGraph.edges,
      s"incremental=${st1.graph.edges} full=${full.containmentGraph.edges}")
  }

  test("addDataset with a disjoint schema becomes a new cluster center") {
    val (_, st0) = freshState()
    val alien = spark.range(10).select(col("id").as("alien_id")).cache()
    val (st1, _) = DynamicUpdates.addDataset(st0, "alien", alien)
    assert(!st1.graph.edges.exists(e => e.parent == "alien" || e.child == "alien"))
  }

  test("addDataset rejects duplicate names") {
    val (datasets, st0) = freshState()
    intercept[IllegalArgumentException](DynamicUpdates.addDataset(st0, "li", datasets("li")))
  }

  test("deleteDataset removes the node, its edges, stats and cluster slots") {
    val (_, st0) = freshState()
    val st1 = DynamicUpdates.deleteDataset(st0, "filt")
    assert(!st1.graph.nodes.contains("filt"))
    assert(!st1.graph.edges.exists(e => e.parent == "filt" || e.child == "filt"))
    assert(st1.catalog.get("filt").isEmpty)
  }

  test("deleteDataset leaves the stats of the earlier state and of its run intact") {
    val datasets = smallLake()
    val run = R2D2.run(datasets.toSeq.sortBy(_._1))
    val st0 = R2D2State.fromRun(datasets, run)
    DynamicUpdates.deleteDataset(st0, "filt")
    assert(st0.catalog.get("filt").isDefined && run.catalog.get("filt").isDefined)
    // q20's candidates include filt → q20, so MMP reads filt's stats from st0.
    val q20 = datasets("li").where(col("l_quantity") <= 20).cache()
    val (st1, _) = DynamicUpdates.addDataset(st0, "q20", q20)
    assertMatchesRun(st1, datasets + ("q20" -> q20))
  }

  test("rowsAdded keeps outgoing edges and drops a now-invalid incoming edge") {
    val (datasets, st0) = freshState()
    // Grow "filt" with rows not present in li: it is no longer contained.
    val grown = datasets("filt")
      .union(datasets("filt").limit(3).withColumn("l_extendedprice", lit(123456.789)))
      .cache()
    val (st1, examined) = DynamicUpdates.rowsAdded(st0, "filt", grown)
    assert(!st1.graph.edges.contains(Edge("li", "filt")), "stale incoming edge kept")
    assert(examined <= st0.schemas.size)
  }

  test("rowsAdded finds a new outgoing edge when the grown dataset now contains another") {
    val (datasets, st0) = freshState()
    // Grow filt with li's remaining rows: filt = li, so filt → li now holds.
    val grown = datasets("filt").union(datasets("li").where(col("l_returnflag") =!= "N")).cache()
    val (st1, _) = DynamicUpdates.rowsAdded(st0, "filt", grown)
    assert(st1.graph.edges.contains(Edge("filt", "li")))
    assertMatchesRun(st1, datasets + ("filt" -> grown))
  }

  test("rowsRemoved keeps incoming edges and can create new outgoing edges") {
    val (datasets, st0) = freshState()
    // Shrink li to exactly filt's rows: now li ⊆ filt too (they're equal).
    val shrunk = datasets("li").where(col("l_returnflag") === "N").cache()
    val (st1, _) = DynamicUpdates.rowsRemoved(st0, "li", shrunk)
    assert(st1.graph.edges.contains(Edge("li", "filt")), "incoming-side edges must remain")
    assert(st1.graph.edges.contains(Edge("filt", "li")), "new incoming edge filt → li missed")
    assertMatchesRun(st1, datasets + ("li" -> shrunk))
  }

  test("addDataset after deleting the only SGB center still finds every parent") {
    val (datasets, st0) = freshState()
    // filt and li have equal schemas and filt sorts first, so filt is the
    // batch run's only center; the new dataset's schema lies under li's.
    val st1 = DynamicUpdates.deleteDataset(st0, "filt")
    val projN = datasets("proj").where(col("l_returnflag") === "N").cache()
    val (st2, _) = DynamicUpdates.addDataset(st1, "projN", projN)
    assert(st2.graph.edges.contains(Edge("li", "projN")))
    assertMatchesRun(st2, datasets - "filt" + ("projN" -> projN))
  }

  test("rowsAdded/rowsRemoved on unknown dataset fail loudly") {
    val (datasets, st0) = freshState()
    intercept[IllegalArgumentException](DynamicUpdates.rowsAdded(st0, "ghost", datasets("li")))
    intercept[IllegalArgumentException](DynamicUpdates.rowsRemoved(st0, "ghost", datasets("li")))
  }

  test("fromRun flattens nested frames, so updates after a nested run resolve their columns") {
    val nested = spark.range(20).select(struct(col("id").as("k")).as("s"), (col("id") * 2).as("v")).cache()
    val datasets = Map("n" -> nested)
    val st0 = R2D2State.fromRun(datasets, R2D2.run(datasets.toSeq))
    val (st1, _) = DynamicUpdates.addDataset(st0, "half", nested.where(col("v") < 20))
    assert(st1.graph.edges.contains(Edge("n", "half")))
  }

  /** The frames of `Profiles.tiny`'s lineitem family, its densest graph,
    * full and shrunk. A shrunk frame drops the rows whose content hash is 0
    * mod 5, so datasets with the same columns drop the same rows.
    */
  private lazy val family: Map[String, DataFrame] = {
    val tiny = Profiles.tiny()
    val lake = LakeGenerator.generate(spark, tiny.copy(families = tiny.families.take(1)))
    lake.datasets.map(d => d.name -> d.df).toMap
  }
  private val shrunkFrames = mutable.Map.empty[String, DataFrame]
  private def frame(name: String, shrunk: Boolean): DataFrame =
    if (!shrunk) family(name)
    else shrunkFrames.getOrElseUpdate(name, {
      val full = family(name)
      full.where(pmod(xxhash64(full.columns.toSeq.sorted.map(c => col(s"`$c`")): _*), lit(5L)) =!= 0).cache()
    })

  /** Start from a random 4/5 of the family, apply 8 operations (an equal
    * share of each of `kinds`, shuffled; a kind with no valid target falls
    * through to the next that has one), then compare the state with a full
    * run over the final lake: it keeps every edge CLP keeps and none MMP
    * refutes, and equals the CLP graph when only datasets come and go.
    */
  private def differential(seed: Long, kinds: Seq[String]): Unit = {
    val cfg = CLPConfig(seed = seed)
    val rng = new scala.util.Random(seed)
    val names = family.keys.toSeq.sorted
    val present = mutable.Map.empty[String, Boolean] // name → shrunk?
    names.filter(_ => rng.nextDouble() < 0.8).foreach(present(_) = false)
    def lake = present.map { case (x, shrunk) => x -> frame(x, shrunk) }.toMap
    var st = R2D2State.fromRun(lake, R2D2.run(lake.toSeq.sortBy(_._1), cfg))
    def options(kind: String): Seq[String] = kind match {
      case "add"          => names.filterNot(present.contains)
      case "delete"       => if (present.size > 2) present.keys.toSeq.sorted else Nil
      case "rows_removed" => present.collect { case (x, false) => x }.toSeq.sorted
      case "rows_added"   => present.collect { case (x, true) => x }.toSeq.sorted
    }
    val applied = rng.shuffle(Seq.tabulate(8)(i => kinds(i % kinds.size))).map { k0 =>
      val kind = (kinds.dropWhile(_ != k0) ++ kinds).find(options(_).nonEmpty).get
      val x = options(kind)(rng.nextInt(options(kind).size))
      kind match {
        case "add"          => st = DynamicUpdates.addDataset(st, x, frame(x, false), cfg)._1; present(x) = false
        case "delete"       => st = DynamicUpdates.deleteDataset(st, x); present.remove(x)
        case "rows_removed" => st = DynamicUpdates.rowsRemoved(st, x, frame(x, true), cfg)._1; present(x) = true
        case "rows_added"   => st = DynamicUpdates.rowsAdded(st, x, frame(x, false), cfg)._1; present(x) = false
      }
      s"$kind($x)"
    }
    val run = R2D2.run(lake.toSeq.sortBy(_._1), cfg)
    val ctx = s"seed $seed, ops ${applied.mkString(", ")}"
    assert(run.clp.graph.edges.subsetOf(st.graph.edges),
      s"$ctx: missed ${run.clp.graph.edges -- st.graph.edges}")
    assert(st.graph.edges.subsetOf(run.mmp.graph.edges),
      s"$ctx: kept edges MMP refutes ${st.graph.edges -- run.mmp.graph.edges}")
    if (kinds.forall(Set("add", "delete")))
      assert(st.graph.edges == run.clp.graph.edges, ctx)
  }

  test("differential: random add/delete sequences match a full run exactly") {
    differential(seed = 1, kinds = Seq("add", "delete"))
  }

  test("differential: random sequences of all four operations lose no edge of a full run") {
    for (seed <- Seq(2L, 3L)) differential(seed, kinds = Seq("add", "delete", "rows_removed", "rows_added"))
  }
}
