package repro.opt

import repro.core.{ContainmentGraph, Edge}

/** §5.1 graph pre-processing for "safe deletion".
  *
  * Input: the containment graph produced by the R2D2 pipeline. Three things
  * are enforced before optimization:
  *  1. the transformation generating the child from the parent must be known
  *     (paper: human input; here: the lake generator's provenance, which is
  *     the same information) — unknown edges are pruned;
  *  2. the reconstruction cost C_e = r·s_p + w·s_q is estimated per edge;
  *  3. the reconstruction latency L_e = r_ℓ·s_p + w_ℓ·s_q must be below the
  *     QoS threshold Th — slower edges are pruned.
  */
object Preprocess {

  /** Build the OPT-RET problem from a containment graph.
    *
    * @param sizes            dataset name → size in bytes
    * @param rows             dataset name → row count (for savings reporting)
    * @param transformKnown   (parent, child) → is the transformation known?
    * @param accesses         A_v per month
    * @param maintenance      f_v per month
    * @param latencyThreshold Th in seconds
    */
  def buildProblem(
      graph: ContainmentGraph,
      sizes: Map[String, Double],
      rows: Map[String, Long],
      transformKnown: Edge => Boolean,
      accesses: Map[String, Double],
      maintenance: Map[String, Double],
      cm: CostModel,
      latencyThreshold: Double,
  ): OptProblem = {
    val nodes = graph.nodes.toSeq.sorted.map { n =>
      OptNode(n, sizes(n), accesses.getOrElse(n, 0.0), maintenance.getOrElse(n, 0.0), rows.getOrElse(n, 0L))
    }
    val edges = graph.edges.toSeq
      .filter(transformKnown)
      .filter { e =>
        cm.reconstructionLatency(sizes(e.parent), sizes(e.child)) < latencyThreshold
      }
      .map(e => OptEdge(e.parent, e.child, cm.reconstructionCost(sizes(e.parent), sizes(e.child))))
      .sortBy(e => (e.parent, e.child))
    OptProblem(nodes, edges, cm)
  }

  /** "Transformation known" relation from generator provenance: an edge u→v
    * is reconstructible iff u and v are connected by a provenance path (the
    * composite transformation is then known), in either direction — e.g. an
    * add-rows child contains its provenance parent, so the containment edge
    * runs child→parent while provenance runs parent→child.
    */
  def provenanceKnown(provenance: Seq[(String, String)]): Edge => Boolean = {
    val up = provenance.map { case (p, c) => c -> p }.toMap // child → provenance parent
    def ancestors(n: String): Set[String] = {
      val out = scala.collection.mutable.Set.empty[String]
      var cur = up.get(n)
      while (cur.isDefined && !out(cur.get)) { out += cur.get; cur = up.get(cur.get) }
      out.toSet
    }
    e => ancestors(e.child).contains(e.parent) || ancestors(e.parent).contains(e.child)
  }

  /** Exponent of [[powerLaw]]'s Pareto distribution. */
  val PowerLawAlpha = 2.2

  /** Power-law samples for accesses/maintenance frequencies (§6.7: "for
    * synthetic data, we sampled A and f_m from a power law distribution").
    */
  def powerLaw(names: Seq[String], seed: Long, xMin: Double = 0.5): Map[String, Double] = {
    val rng = new scala.util.Random(seed)
    names.map(n => n -> xMin * math.pow(1.0 - rng.nextDouble(), -1.0 / (PowerLawAlpha - 1.0))).toMap
  }
}
