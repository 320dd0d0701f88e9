package repro.core

import org.apache.spark.sql.DataFrame

import repro.stats.StatsCatalog

/** Incremental state for §7.1 dynamic graph updates. Operations never write
  * to the catalog of the state they are given, only to a copy of it, so an
  * earlier state (and the run it came from) keeps stats that match its frames.
  */
final case class R2D2State(
    dfs: Map[String, DataFrame],
    schemas: Map[String, SchemaSet],
    catalog: StatsCatalog,
    graph: ContainmentGraph,
)

object R2D2State {
  /** The state after `run` over `datasets`; the frames are flattened, as the
    * run's own were, so they match the run's schema tokens.
    */
  def fromRun(datasets: Map[String, DataFrame], run: R2D2Run): R2D2State =
    R2D2State(
      datasets.map { case (n, df) => n -> StatsCatalog.flatten(df) },
      run.schemas, run.catalog, run.containmentGraph)
}

/** Dynamic updates (§7.1) — each operation is linear in the number of
  * datasets, as the paper argues, instead of re-running the whole pipeline.
  *
  * SGB's edge set is exactly the ordered pairs whose child schema is
  * contained in the parent's (Theorem 4.1); its clusters only make the batch
  * search cheap. So an operation on `x` re-derives x's candidate edges by one
  * schema-containment pass over every other dataset and runs them through
  * the same MMP and CLP as [[R2D2.run]]; no clustering is kept.
  */
object DynamicUpdates {

  /** The candidate edges that survive MMP then CLP, as in [[R2D2.run]]. */
  private def verify(st: R2D2State, candidates: Iterable[Edge], cfg: CLPConfig): Set[Edge] = {
    val mmp = MMP.prune(ContainmentGraph(st.dfs.keys, candidates), st.catalog(_))
    CLP.prune(mmp.graph, st.dfs(_), st.schemas(_), cfg).graph.edges
  }

  /** Ingest `df` as dataset `name` into a copy of the state's catalog, as
    * [[R2D2.run]] ingests, and register its frame and schema.
    */
  private def put(st: R2D2State, name: String, df: DataFrame): R2D2State = {
    val catalog = st.catalog.copy()
    val flat = catalog.ingest(name, df)
    st.copy(
      dfs = st.dfs + (name -> flat),
      schemas = st.schemas + (name -> SchemaSet.fromStruct(flat.schema)),
      catalog = catalog,
      graph = st.graph.addNode(name),
    )
  }

  /** Replace x's incident edges: every schema-containment candidate o → x
    * and x → o is kept unprobed when it is already in the graph and `holds`
    * vouches for it, and verified by MMP then CLP otherwise. Returns the new
    * state and the number of datasets examined.
    */
  private def relink(st: R2D2State, x: String, cfg: CLPConfig, holds: Edge => Boolean): (R2D2State, Long) = {
    val others = st.schemas.filter(_._1 != x)
    val candidates = others.flatMap(SchemaSet.edges(_, x -> st.schemas(x)))
    val (kept, probe) = candidates.partition(e => st.graph.edges.contains(e) && holds(e))
    val rest = st.graph.edges.filterNot(e => e.parent == x || e.child == x)
    (st.copy(graph = st.graph.copy(edges = rest ++ kept ++ verify(st, probe, cfg))), others.size.toLong)
  }

  /** Add a new dataset and verify all of its candidate edges. */
  def addDataset(st: R2D2State, name: String, df: DataFrame, cfg: CLPConfig = CLPConfig()): (R2D2State, Long) = {
    require(!st.dfs.contains(name), s"dataset $name already present")
    relink(put(st, name, df), name, cfg, _ => false)
  }

  /** Delete a dataset: drop its node, incident edges, stats and frame. */
  def deleteDataset(st: R2D2State, name: String): R2D2State = {
    val catalog = st.catalog.copy()
    catalog.remove(name)
    st.copy(dfs = st.dfs - name, schemas = st.schemas - name, catalog = catalog, graph = st.graph.removeNode(name))
  }

  /** Rows were added to `name`: its children still fit in it, so only its
    * other candidate edges are verified.
    */
  def rowsAdded(st: R2D2State, name: String, newDf: DataFrame, cfg: CLPConfig = CLPConfig()): (R2D2State, Long) = {
    require(st.dfs.contains(name), s"unknown dataset $name")
    relink(put(st, name, newDf), name, cfg, _.parent == name)
  }

  /** Rows were removed from `name`: it still fits in its parents, so only
    * its other candidate edges are verified.
    */
  def rowsRemoved(st: R2D2State, name: String, newDf: DataFrame, cfg: CLPConfig = CLPConfig()): (R2D2State, Long) = {
    require(st.dfs.contains(name), s"unknown dataset $name")
    relink(put(st, name, newDf), name, cfg, _.child == name)
  }
}
