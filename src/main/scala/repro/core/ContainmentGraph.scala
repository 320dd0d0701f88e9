package repro.core

/** A directed containment edge: `parent → child`, meaning "child is
  * (a candidate for being) contained in parent".
  */
final case class Edge(parent: String, child: String) {
  require(parent != child, s"self edge on $parent")
}

/** Immutable directed graph over dataset names.
  *
  * After SGB an edge means schema containment (child.schema ⊆ parent.schema);
  * after MMP/CLP it means table containment with high probability.
  */
final case class ContainmentGraph(nodes: Set[String], edges: Set[Edge]) {
  def removeEdges(es: Iterable[Edge]): ContainmentGraph = copy(edges = edges -- es)
  def addNode(n: String): ContainmentGraph = copy(nodes = nodes + n)

  /** Drop a node and every incident edge (§7.1, dataset deletion). */
  def removeNode(n: String): ContainmentGraph =
    ContainmentGraph(nodes - n, edges.filterNot(e => e.parent == n || e.child == n))

  def edgeCount: Int = edges.size

  /** Weakly-connected components (used to decompose OPT-RET). */
  def weakComponents: Seq[Set[String]] = {
    val adj = scala.collection.mutable.Map.empty[String, List[String]].withDefaultValue(Nil)
    edges.foreach { e =>
      adj(e.parent) ::= e.child
      adj(e.child) ::= e.parent
    }
    val seen = scala.collection.mutable.Set.empty[String]
    val out = Seq.newBuilder[Set[String]]
    for (n <- nodes.toSeq.sorted if !seen(n)) {
      val comp = scala.collection.mutable.Set.empty[String]
      var stack = List(n)
      while (stack.nonEmpty) {
        val cur = stack.head; stack = stack.tail
        if (!seen(cur)) { seen += cur; comp += cur; stack = adj(cur) reverse_::: stack }
      }
      out += comp.toSet
    }
    out.result()
  }
}

object ContainmentGraph {
  def apply(nodes: Iterable[String], edges: Iterable[Edge]): ContainmentGraph =
    ContainmentGraph(nodes.toSet, edges.toSet)
}
