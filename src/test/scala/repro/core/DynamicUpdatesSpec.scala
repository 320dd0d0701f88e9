package repro.core

import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}

/** §7.1 dynamic updates: incremental maintenance must agree with a full
  * pipeline recompute, at linear cost.
  */
class DynamicUpdatesSpec extends SparkSpec {

  private def freshState() = {
    val li = SynthData.lineitem(spark, sf = 0.0002, seed = 31).cache()
    val filt = li.where(col("l_returnflag") === "N").cache()
    val proj = li.drop("l_tax").cache()
    val datasets = Map("li" -> li, "filt" -> filt, "proj" -> proj)
    val run = R2D2.run(datasets.toSeq.sortBy(_._1))
    (datasets, R2D2State.fromRun(datasets, run))
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
    assert(st1.clusters.exists(_.center == "alien"))
    assert(st1.graph.parentsOf("alien").isEmpty && st1.graph.childrenOf("alien").isEmpty)
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
    assert(st1.clusters.forall(c => !c.members.contains("filt")))
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

  test("rowsRemoved keeps incoming edges and can create new outgoing edges") {
    val (datasets, st0) = freshState()
    // Shrink li to exactly filt's rows: now li ⊆ filt too (they're equal).
    val shrunk = datasets("li").where(col("l_returnflag") === "N").cache()
    val (st1, _) = DynamicUpdates.rowsRemoved(st0, "li", shrunk)
    assert(st1.graph.edges.contains(Edge("li", "filt")), "incoming-side edges must remain")
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
}
