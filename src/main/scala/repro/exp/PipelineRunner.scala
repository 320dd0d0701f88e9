package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.lake.{Lake, LakeGenerator, LakeProfile}
import repro.stats.StatsCatalog
import repro.util.Par

/** Per-stage edge quality versus the ground-truth containment graph:
  * `correct` = stage ∩ GT, `incorrect` = stage \ GT (containment fraction
  * < 1), `notDetected` = GT \ stage (must be 0 at every R2D2 stage).
  */
final case class StageEval(correct: Int, incorrect: Int, notDetected: Int)

/** Everything one lake run produces — shared by all table experiments.
  *
  * @param gtMs wall-clock milliseconds of the ground truth
  */
final case class PipelineOutput(
    lake: Lake,
    run: R2D2Run,
    gtSchema: ContainmentGraph,
    gtSchemaOps: Long,
    gt: GroundTruth.ContentGT,
    gtMs: Long,
) {
  def catalog: StatsCatalog = run.catalog
  def sgb: SGBResult = run.sgb
  def mmp: MMPResult = run.mmp
  def clp: CLPResult = run.clp
  def timings: StageTimings = run.timings

  def eval(g: ContainmentGraph): StageEval = StageEval(
    correct = g.edges.count(gt.graph.edges.contains),
    incorrect = g.edges.count(e => !gt.graph.edges.contains(e)),
    notDetected = gt.graph.edges.count(e => !g.edges.contains(e)),
  )
  def evalSGB: StageEval = eval(sgb.graph)
  def evalMMP: StageEval = eval(mmp.graph)
  def evalCLP: StageEval = eval(clp.graph)

  /** Re-run only CLP with different (s, t) — used by the Table 6 sweep. */
  def rerunCLP(cfg: CLPConfig): (CLPResult, StageEval) = {
    val res = CLP.prune(mmp.graph, run.dfs(_), run.schemas(_), cfg)
    (res, eval(res.graph))
  }
}

object PipelineRunner {

  /** Generate the lake for `profile`, run [[R2D2.run]] over it, then the
    * ground truth to evaluate it against.
    */
  def run(spark: SparkSession, profile: LakeProfile): PipelineOutput = {
    val lake = LakeGenerator.generate(spark, profile)
    val run = R2D2.run(lake.datasets.map(d => d.name -> d.df))

    // Ground truth (§6.2): brute-force schema graph, then full-content check
    // per schema edge. Timed as one unit — this is the baseline R2D2 beats.
    val t0 = System.nanoTime()
    val (gtSchemaGraph, gtSchemaOps) = GroundTruth.schemaGraph(lake.schemas)
    val data = Par.map(lake.datasets)(d => d.name -> TableData.fromDf(d.name, run.dfs(d.name))).toMap
    val gtContent = GroundTruth.contentGraph(gtSchemaGraph, data(_))
    val gtMs = (System.nanoTime() - t0) / 1000000

    PipelineOutput(lake, run, gtSchemaGraph, gtSchemaOps, gtContent, gtMs)
  }
}
