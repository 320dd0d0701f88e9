package repro.core

import org.apache.spark.sql.{DataFrame, Row}

/** A fully-materialized table for brute-force ground-truth computation:
  * canonical string values per cell (null for a null), columns in
  * schema-token order.
  */
final case class TableData(name: String, columns: Seq[String], rows: Array[Array[String]]) {
  lazy val schema: SchemaSet = SchemaSet(columns.toSet)
  def rowCount: Long = rows.length.toLong

  /** Distinct rows projected onto `cols` (must be a subset of columns), each
    * keyed by the sequence of its cells.
    */
  def projectedKeys(cols: Seq[String]): Set[Seq[String]] = {
    val idx = cols.map { c =>
      val i = columns.indexOf(c)
      require(i >= 0, s"column $c not in ${name}")
      i
    }
    rows.iterator.map(r => idx.map(r)).toSet
  }
}

object TableData {
  /** Canonical cell formatting: values equal under `<=>` render identically,
    * at any depth. Byte arrays render by content, in hex (their `toString` is
    * an identity hash); `-0.0` renders as `0.0`; a float renders as the
    * double it widens to, as `<=>` compares it with a double; arrays and
    * structs render element by element, each element prefixed by its length
    * so that no two different values share a rendering. A null stays null at
    * the top level, and renders as a bare `∅` inside an array or struct,
    * where no length-prefixed element can equal it.
    */
  def cell(v: Any): String = v match {
    case null                        => null
    case b: Array[Byte]              => java.util.HexFormat.of().formatHex(b)
    case d: Double if d == 0.0       => "0.0"
    case f: Float                    => cell(f.toDouble)
    case xs: scala.collection.Seq[_] => elements(xs, "[", "]")
    case r: Row                      => elements(r.toSeq, "{", "}")
    case _                           => v.toString
  }

  private def elements(xs: Iterable[Any], open: String, close: String): String =
    xs.iterator.map { x => val s = cell(x); if (s == null) "∅" else s"${s.length}:$s" }.mkString(open, ",", close)

  def fromDf(name: String, df: DataFrame): TableData = {
    val cols = df.columns.toSeq
    val rows = df.collect().map(r => Array.tabulate(cols.size)(i => cell(r.get(i))))
    TableData(name, cols, rows)
  }
}

/** Brute-force ground truth (§6.2): all-pairs schema containment, then per
  * schema-edge full-content containment.
  *
  * The paper's brute force compares hashes of all row pairs (Σ MᵢMⱼ
  * operations, Table 3); we keep that as the *cost model* but execute with a
  * hash set per edge so ground truth is computable at all — the semantics
  * are identical. Containment is over distinct row tuples projected onto the
  * child's schema (Spark preserves neither row order nor multiplicity).
  */
object GroundTruth {

  /** All-pairs schema containment graph. Returns the graph and the number of
    * pairwise schema comparisons (the Table 3 `C(N,2)` cost).
    */
  def schemaGraph(datasets: Seq[(String, SchemaSet)]): (ContainmentGraph, Long) = {
    var ops = 0L
    val edges = Set.newBuilder[Edge]
    for (i <- datasets.indices; j <- datasets.indices if i < j) {
      ops += 1
      edges ++= SchemaSet.edges(datasets(i), datasets(j))
    }
    (ContainmentGraph(datasets.map(_._1), edges.result()), ops)
  }

  /** Containment fraction CM(child, parent) over the child's columns. */
  def containmentFraction(child: TableData, parent: TableData): Double = {
    val cols = child.columns.sorted
    val childKeys = child.projectedKeys(cols)
    if (childKeys.isEmpty) return 1.0
    val parentKeys = parent.projectedKeys(cols)
    childKeys.count(parentKeys.contains).toDouble / childKeys.size
  }

  final case class ContentGT(
      graph: ContainmentGraph,
      fractions: Map[Edge, Double],
      pairwiseOps: Long,
  )

  /** For every schema-graph edge, compute the true containment fraction and
    * keep the edge iff CM = 1. `pairwiseOps` accumulates the paper's
    * brute-force Σ MᵢMⱼ row-pair cost for Table 3.
    */
  def contentGraph(schemaGraph: ContainmentGraph, data: String => TableData): ContentGT = {
    var ops = 0L
    val fractions = schemaGraph.edges.toSeq.sortBy(e => (e.parent, e.child)).map { e =>
      val p = data(e.parent)
      val c = data(e.child)
      ops += p.rowCount * c.rowCount
      e -> containmentFraction(c, p)
    }.toMap
    val kept = schemaGraph.edges.filter(e => fractions(e) >= 1.0 - 1e-12)
    ContentGT(ContainmentGraph(schemaGraph.nodes, kept), fractions, ops)
  }
}
