package r2d2bench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.opt.{CostModel, OptProblem, OptRet, OptSolution, Preprocess}
import repro.stats.StatsCatalog

/** The outcome of one pass from the parquet lake to a deletion plan. */
final case class PassResult(graph: ContainmentGraph, catalog: StatsCatalog, problem: OptProblem, plan: OptSolution)

/** The user path, lake on disk → deletion plan, through the program's public
  * entry points, with and without per-layer tracing.
  */
object Pipeline {

  /** CLP settings pinned by the benchmark: the program's defaults. */
  val clpCfg: CLPConfig = CLPConfig()

  /** §6.7 / Table 7 inputs to OPT-RET: power-law access and maintenance
    * frequencies (seeded as in the Table 7 experiment), Azure-like prices
    * and a 600 s reconstruction latency limit.
    */
  val AccessSeed = 31L
  val LatencyLimitS = 600.0
  val WeeksPerMonth: Double = 52.0 / 12.0

  /** OPT-RET's branch-and-bound limit, pinned at `OptRet.solve`'s default:
    * larger components use greedy search.
    */
  val OptRetBbLimit = 24

  def optimize(graph: ContainmentGraph, catalog: StatsCatalog, provenance: Seq[(String, String)]): (OptProblem, OptSolution) = {
    val names = graph.nodes.toSeq.sorted
    val problem = Preprocess.buildProblem(
      graph,
      names.map(n => n -> catalog(n).sizeBytes.toDouble).toMap,
      names.map(n => n -> catalog(n).rowCount).toMap,
      Preprocess.provenanceKnown(provenance),
      accesses = Preprocess.powerLaw(names, AccessSeed, xMin = 0.02),
      maintenance = Preprocess.powerLaw(names, AccessSeed + 1, xMin = WeeksPerMonth),
      cm = CostModel.azureHotLike,
      latencyThreshold = LatencyLimitS,
    )
    (problem, OptRet.solve(problem, OptRetBbLimit))
  }

  /** 100 × (retain-all cost − plan cost) / retain-all cost, Eq. 3 objective. */
  def savingPct(problem: OptProblem, plan: OptSolution): Double = {
    val retainAll = problem.nodes.map(problem.retentionCost).sum
    100.0 * (retainAll - plan.cost) / retainAll
  }

  /** Untraced pass: `R2D2.run` on the lake read back from parquet, then
    * §5.1 pre-processing and OPT-RET.
    */
  def pass(spark: SparkSession, lake: DiskLake): (PassResult, R2D2Run, Seq[(String, DataFrame)]) = {
    val dfs = lake.readAll(spark)
    val run = R2D2.run(dfs, clpCfg)
    val (problem, plan) = optimize(run.containmentGraph, run.catalog, lake.provenance)
    (PassResult(run.containmentGraph, run.catalog, problem, plan), run, dfs)
  }

  /** Traced pass: the same layers as [[pass]], called one at a time, each in
    * its own span, with the layer's driver-side counters recorded.
    *
    * The "stats" to "clp" spans must mirror the body of `R2D2.run`. The traced
    * run fails when this pass's graph or catalog differs from the last
    * untraced pass's, so a change to `R2D2.run` that is not carried over here
    * shows as a gate failure rather than as per-layer figures of an old
    * pipeline.
    */
  def tracedPass(spark: SparkSession, lake: DiskLake, tr: Tracer, counters: Counters): PassResult =
    tr.span("pipeline") {
      val dfs = tr.span("read")(lake.readAll(spark))
      val (flat, schemas, catalog) = tr.span("stats") {
        val flat = dfs.map { case (n, df) => n -> StatsCatalog.flatten(df) }
        val schemas = flat.map { case (n, df) => n -> SchemaSet.fromStruct(df.schema) }
        val catalog = new StatsCatalog
        flat.foreach { case (n, df) => catalog.ingest(n, df) }
        (flat, schemas, catalog)
      }
      val sgb = tr.span("sgb")(SGB.build(schemas))
      val mmp = tr.span("mmp")(MMP.prune(sgb.graph, catalog(_)))
      val dfMap = flat.toMap
      val clp = tr.span("clp")(CLP.prune(mmp.graph, dfMap(_), schemas.toMap, clpCfg))
      val (problem, plan) = tr.span("optret")(optimize(clp.graph, catalog, lake.provenance))
      counters.record(sgb, mmp, clp, problem, plan)
      PassResult(clp.graph, catalog, problem, plan)
    }
}

/** Driver-side work counters of the traced pass, per layer. */
final class Counters {
  val values = scala.collection.mutable.LinkedHashMap.empty[String, Double]

  def record(sgb: SGBResult, mmp: MMPResult, clp: CLPResult, problem: OptProblem, plan: OptSolution): Unit = {
    values ++= Seq(
      "sgb.center_checks" -> sgb.centerChecks.toDouble,
      "sgb.pair_checks" -> sgb.pairChecks.toDouble,
      "sgb.clusters" -> sgb.clusters.size.toDouble,
      "sgb.edges" -> sgb.graph.edgeCount.toDouble,
      "mmp.ops" -> mmp.opCount.toDouble,
      "mmp.pruned" -> mmp.pruned.size.toDouble,
      "mmp.prune_ratio" -> ratio(mmp.pruned.size, mmp.opCount),
      "clp.edges_in" -> mmp.graph.edgeCount.toDouble,
      "clp.probes" -> clp.probeCount.toDouble,
      "clp.pruned" -> clp.pruned.size.toDouble,
      "clp.prune_ratio" -> ratio(clp.pruned.size, mmp.graph.edgeCount),
      "clp.children" -> mmp.graph.edges.map(_.child).size.toDouble,
      "clp.parents" -> mmp.graph.edges.map(_.parent).size.toDouble,
    )
    val g = ContainmentGraph(problem.nodes.map(_.name), problem.edges.map(e => Edge(e.parent, e.child)))
    val comps = g.weakComponents
    values ++= Seq(
      "optret.nodes" -> problem.nodes.size.toDouble,
      "optret.edges" -> problem.edges.size.toDouble,
      "optret.components" -> comps.size.toDouble,
      "optret.largest_component" -> comps.map(_.size).max.toDouble,
      "optret.greedy_components" -> comps.count(_.size > Pipeline.OptRetBbLimit).toDouble,
      "optret.deleted" -> (problem.nodes.size - plan.retained.size).toDouble,
    )
  }

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b
}
