package repro.core

import org.apache.spark.sql.DataFrame

import repro.stats.StatsCatalog

/** Incremental state for §7.1 dynamic graph updates. */
final case class R2D2State(
    dfs: Map[String, DataFrame],
    schemas: Map[String, SchemaSet],
    catalog: StatsCatalog,
    clusters: Seq[SGBResult.Cluster],
    graph: ContainmentGraph,
)

object R2D2State {
  /** The state after `run` over `datasets`; the frames are flattened, as the
    * run's own were, so they match the run's schema tokens.
    */
  def fromRun(datasets: Map[String, DataFrame], run: R2D2Run): R2D2State =
    R2D2State(
      datasets.map { case (n, df) => n -> StatsCatalog.flatten(df) },
      run.schemas, run.catalog, run.sgb.clusters, run.containmentGraph)
}

/** Dynamic updates (§7.1) — each operation is linear in the number of
  * datasets, as the paper argues, instead of re-running the whole pipeline.
  */
object DynamicUpdates {

  /** The candidate edges that survive MMP then CLP, as in [[R2D2.run]]. */
  private def verify(st: R2D2State, candidates: Seq[Edge], cfg: CLPConfig): Set[Edge] = {
    val mmp = MMP.prune(ContainmentGraph(st.dfs.keys, candidates), st.catalog(_))
    CLP.prune(mmp.graph, st.dfs(_), st.schemas(_), cfg).graph.edges
  }

  /** Add a new dataset: place it in the SGB clustering (new member of every
    * containing center, or a new center), probe candidate edges against its
    * cluster co-members with MMP + CLP, and splice the survivors in.
    * Returns the updated state and the number of datasets examined.
    */
  def addDataset(st0: R2D2State, name: String, df: DataFrame, cfg: CLPConfig = CLPConfig()): (R2D2State, Long) = {
    require(!st0.dfs.contains(name), s"dataset $name already present")
    val flat = R2D2.ingest(st0.catalog, name, df)
    val schema = SchemaSet.fromStruct(flat.schema)
    val st = st0.copy(
      dfs = st0.dfs + (name -> flat),
      schemas = st0.schemas + (name -> schema),
      graph = st0.graph.addNode(name),
    )
    var examined = 0L

    val containingCenters = st.clusters.filter { c => examined += 1; schema.subsetOf(st.schemas(c.center)) }
    val (clusters, candidates) =
      if (containingCenters.nonEmpty) {
        val updated = st.clusters.map { c =>
          if (containingCenters.exists(_.center == c.center)) c.copy(members = c.members :+ name) else c
        }
        (updated, containingCenters.flatMap(_.members).distinct)
      } else {
        // New center: every dataset contained in it becomes a member — one
        // linear pass over all datasets (§7.1).
        val members = st0.schemas.keys.toSeq.sorted.filter { other =>
          examined += 1
          st.schemas(other).subsetOf(schema)
        }
        (st.clusters :+ SGBResult.Cluster(name, name +: members), members)
      }

    val edges = candidates.filter(_ != name).flatMap { other =>
      val so = st.schemas(other)
      (if (schema.subsetOf(so)) Seq(Edge(other, name)) else Nil) ++
        (if (so.subsetOf(schema)) Seq(Edge(name, other)) else Nil)
    }
    val verified = verify(st, edges, cfg)
    (st.copy(clusters = clusters, graph = st.graph.copy(edges = st.graph.edges ++ verified)), examined)
  }

  /** Delete a dataset: drop its node, incident edges and cluster slots. */
  def deleteDataset(st: R2D2State, name: String): R2D2State = {
    st.catalog.remove(name)
    st.copy(
      dfs = st.dfs - name,
      schemas = st.schemas - name,
      clusters = st.clusters
        .map(c => c.copy(members = c.members.filterNot(_ == name)))
        .filterNot(c => c.center == name), // conservatively drop the cluster; members remain reachable via other clusters or re-add
      graph = st.graph.removeNode(name),
    )
  }

  /** Rows were added to `name`: outgoing edges (children contained in it)
    * still hold; every incoming edge and previously-absent potential parent
    * must be rechecked — linear in the dataset count.
    */
  def rowsAdded(st0: R2D2State, name: String, newDf: DataFrame, cfg: CLPConfig = CLPConfig()): (R2D2State, Long) =
    refreshOneSide(st0, name, newDf, cfg, incomingSide = true)

  /** Rows were removed from `name`: incoming edges still hold; outgoing edges
    * must be rechecked — linear in the dataset count.
    */
  def rowsRemoved(st0: R2D2State, name: String, newDf: DataFrame, cfg: CLPConfig = CLPConfig()): (R2D2State, Long) =
    refreshOneSide(st0, name, newDf, cfg, incomingSide = false)

  private def refreshOneSide(
      st0: R2D2State,
      name: String,
      newDf: DataFrame,
      cfg: CLPConfig,
      incomingSide: Boolean,
  ): (R2D2State, Long) = {
    require(st0.dfs.contains(name), s"unknown dataset $name")
    val st = st0.copy(dfs = st0.dfs + (name -> R2D2.ingest(st0.catalog, name, newDf)))
    val schema = st.schemas(name)
    val others = st.schemas.keys.toSeq.sorted.filter(_ != name)
    val candidates = others.collect {
      case other if incomingSide && schema.subsetOf(st.schemas(other))  => Edge(other, name)
      case other if !incomingSide && st.schemas(other).subsetOf(schema) => Edge(name, other)
    }
    val kept = st.graph.edges.filterNot(e => if (incomingSide) e.child == name else e.parent == name)
    (st.copy(graph = st.graph.copy(edges = kept ++ verify(st, candidates, cfg))), others.size.toLong)
  }
}
