package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ContainmentGraphSpec extends AnyFunSuite {

  private val g = ContainmentGraph(
    Seq("a", "b", "c", "d", "e"),
    Seq(Edge("a", "b"), Edge("a", "c"), Edge("c", "d")),
  )

  test("self edges are rejected") {
    intercept[IllegalArgumentException](Edge("a", "a"))
  }

  test("removeEdges removes a batch") {
    val g2 = g.removeEdges(Seq(Edge("a", "b"), Edge("c", "d")))
    assert(g2.edges == Set(Edge("a", "c")))
  }

  test("removeNode drops the node and all incident edges") {
    val g2 = g.removeNode("c")
    assert(!g2.nodes.contains("c"))
    assert(g2.edges == Set(Edge("a", "b")))
  }

  test("addNode adds an isolated node") {
    val g2 = g.addNode("z")
    assert(g2.nodes.contains("z") && g2.edgeCount == g.edgeCount)
  }

  test("weakComponents groups connected nodes regardless of direction") {
    val comps = g.weakComponents.map(_.toSeq.sorted)
    assert(comps.toSet == Set(Seq("a", "b", "c", "d"), Seq("e")))
  }

  test("weakComponents of the empty graph is empty") {
    assert(ContainmentGraph(Set.empty[String], Set.empty[Edge]).weakComponents.isEmpty)
  }

  test("weakComponents partition the node set") {
    val comps = g.weakComponents
    assert(comps.flatten.toSet == g.nodes)
    assert(comps.map(_.size).sum == g.nodes.size)
  }

  test("a cycle is a single weak component") {
    val cyc = ContainmentGraph(Seq("x", "y"), Seq(Edge("x", "y"), Edge("y", "x")))
    assert(cyc.weakComponents == Seq(Set("x", "y")))
  }
}
