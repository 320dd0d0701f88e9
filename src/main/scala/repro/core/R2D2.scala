package repro.core

import org.apache.spark.sql.DataFrame

import repro.stats.StatsCatalog

/** Wall-clock milliseconds of each stage of one run. `pipelineMs` leaves out
  * ingest, as the paper's Table 5 does.
  */
final case class StageTimings(ingestMs: Long, sgbMs: Long, mmpMs: Long, clpMs: Long) {
  def pipelineMs: Long = sgbMs + mmpMs + clpMs
}

/** Mutable-free snapshot of a full R2D2 run over a set of datasets.
  *
  * @param dfs the flattened frames the stages ran on, keyed by dataset
  */
final case class R2D2Run(
    dfs: Map[String, DataFrame],
    schemas: Map[String, SchemaSet],
    catalog: StatsCatalog,
    sgb: SGBResult,
    mmp: MMPResult,
    clp: CLPResult,
    timings: StageTimings,
) {
  /** The final containment graph: an edge parent → child asserts, with high
    * probability, that the child is fully contained in the parent.
    */
  def containmentGraph: ContainmentGraph = clp.graph
}

/** The three-step hierarchical R2D2 pipeline (§4): SGB → MMP → CLP.
  *
  * Each step only ever *removes* candidate edges, and none can remove a true
  * containment edge (Theorem 4.1 for SGB; exact stats for MMP; sampling from
  * the child for CLP) — so recall is preserved end to end while the incorrect
  * edge count shrinks at every stage.
  *
  * [[run]] is the only entry point of the whole pipeline. It ingests all its
  * datasets in one [[StatsCatalog.ingest]] call: footer stats are read over
  * [[repro.util.Par]], and every other dataset's stats come from one Spark
  * job. The §7.1 updates in [[DynamicUpdates]] reuse that ingest step and
  * its MMP and CLP stages; in place of SGB's clusters they take a changed
  * dataset's candidate edges from schema containment over all other
  * datasets.
  */
object R2D2 {

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  def run(datasets: Seq[(String, DataFrame)], clpCfg: CLPConfig = CLPConfig()): R2D2Run = {
    val catalog = new StatsCatalog
    val (flat, ingestMs) = timed(catalog.ingest(datasets))
    val schemas = flat.map { case (n, df) => n -> SchemaSet.fromStruct(df.schema) }
    val dfs = flat.toMap
    val (sgb, sgbMs) = timed(SGB.build(schemas))
    val (mmp, mmpMs) = timed(MMP.prune(sgb.graph, catalog(_)))
    val (clp, clpMs) = timed(CLP.prune(mmp.graph, dfs(_), schemas.toMap, clpCfg))
    R2D2Run(dfs, schemas.toMap, catalog, sgb, mmp, clp, StageTimings(ingestMs, sgbMs, mmpMs, clpMs))
  }
}
