package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, MapType, StructType}

import scala.collection.concurrent.TrieMap

import repro.stats.StatsCatalog.qcol

/** Parameters of content-level pruning (§4.3, §6.6): Alg. 3's `s` and `t`.
  *
  * @param s    max number of search columns to sample WHERE-filters from
  * @param t    max rows sampled from the child per probe
  * @param seed RNG seed; probes are deterministic in (seed, edge)
  */
final case class CLPConfig(
    s: Int = 4,
    t: Int = 10,
    seed: Long = 42,
) {
  /** How many leading child values a pivot is drawn from. */
  val pivotCandidates: Int = 64
  /** How many edges are probed concurrently. */
  val parallelism: Int = repro.util.Par.Threads
}

/** Result of content-level pruning.
  *
  * @param probeCount number of WHERE-filter probes executed
  */
final case class CLPResult(
    graph: ContainmentGraph,
    pruned: Set[Edge],
    probeCount: Long,
)

/** Algorithm 3 (CLP): for each surviving edge x → y, sample up to `t` rows of
  * the child y via a WHERE filter on each of `s` sampled common columns, and
  * left-anti join the sample against the parent x over **all** common columns
  * (the full row tuple — column-wise set containment is not enough, paper
  * footnote 6). Any sampled row missing from x disproves `y ⊆ x` and the
  * edge is pruned. True containment edges can never be pruned: every row of
  * y, sampled or not, is present in x.
  *
  * Search columns are drawn from the scalar leaves only: an array (or a map,
  * flattened to sorted entries) has no literal to filter by. Such leaves
  * still take part in the join.
  */
object CLP {

  def prune(
      graph: ContainmentGraph,
      dfs: String => DataFrame,
      schemas: String => SchemaSet,
      cfg: CLPConfig = CLPConfig(),
  ): CLPResult = {
    val pivots = TrieMap.empty[(String, String), Array[Any]]
    val edges = graph.edges.toSeq.sortBy(e => (e.parent, e.child))
    // Every edge check is independent (per-edge seeded RNG) and each probe is
    // a tiny one-task Spark job — run them concurrently for wall-clock speed.
    val results = repro.util.Par.map(edges) { e =>
      e -> checkEdge(e, dfs(e.parent), dfs(e.child), schemas(e.parent), schemas(e.child), cfg, pivots)
    }
    var probes = 0L
    val pruned = Set.newBuilder[Edge]
    var g = graph
    for ((e, (doPrune, p)) <- results) {
      probes += p
      if (doPrune) { pruned += e; g = g.removeEdge(e) }
    }
    CLPResult(g, pruned.result(), probes)
  }

  /** Probe a single edge; returns (prune?, probes run). `pivots` memoizes
    * pivot candidates per (dataset, column) across edges probed concurrently;
    * a rare duplicate compute is harmless (same deterministic value).
    */
  def checkEdge(
      e: Edge,
      parentDf: DataFrame,
      childDf: DataFrame,
      parentSchema: SchemaSet,
      childSchema: SchemaSet,
      cfg: CLPConfig,
      pivots: TrieMap[(String, String), Array[Any]] = TrieMap.empty,
  ): (Boolean, Long) = {
    val common = childSchema.tokens.intersect(parentSchema.tokens).toSeq.sorted
    if (common.isEmpty) return (false, 0L)

    val rng = new scala.util.Random(cfg.seed ^ (e.parent + "→" + e.child).hashCode.toLong)
    val scalar = common.filter(c => childDf.schema(c).dataType match {
      case _: ArrayType | _: MapType | _: StructType => false
      case _                                         => true
    })
    val searchCols = rng.shuffle(scalar).take(math.max(1, cfg.s))
    val commonCols: Seq[Column] = common.map(qcol)

    var probes = 0L
    for (c <- searchCols) {
      // Draw a pivot value from the leading child rows — cheap: no full scan,
      // and memoized per (dataset, column) across all of this run's edges.
      val candidates = pivots.getOrElseUpdate((e.child, c),
        childDf
          .select(qcol(c))
          .where(qcol(c).isNotNull)
          .limit(cfg.pivotCandidates)
          .collect()
          .map(_.get(0)))
      if (candidates.nonEmpty) {
        val pivot = candidates(rng.nextInt(candidates.length))
        val sample = childDf.where(qcol(c) === lit(pivot)).select(commonCols: _*).limit(cfg.t).alias("l")
        val parentSide = parentDf.select(commonCols: _*).alias("r")
        val cond = common.map(t => col(s"l.`$t`") <=> col(s"r.`$t`")).reduce(_ && _)
        // Tables here are small in absolute terms; hint the probe join so the
        // globally-disabled auto-broadcast does not force a full shuffle.
        val missing = sample.join(parentSide.hint("broadcast"), cond, "left_anti")
        probes += 1
        if (!missing.isEmpty) return (true, probes)
      }
    }
    (false, probes)
  }
}
