package repro.opt

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class OptRetSpec extends AnyFunSuite {

  private val cm = CostModel.azureHotLike

  private def node(name: String, size: Double, acc: Double = 1.0, maint: Double = 4.0) =
    OptNode(name, size, acc, maint, rowCount = (size / 100).toLong)

  test("a single node with no parents is retained") {
    val p = OptProblem(Seq(node("a", 1e9)), Seq.empty, cm)
    val sol = OptRet.solve(p)
    assert(sol.retained == Set("a"))
    assert(math.abs(sol.cost - p.retentionCost(p.nodes.head)) < 1e-9)
  }

  test("a cheap-to-reconstruct child of a retained parent is deleted") {
    // Child with zero accesses: deletion costs nothing, retention costs something.
    val nodes = Seq(node("p", 1e9), node("c", 1e9, acc = 0.0))
    val edges = Seq(OptEdge("p", "c", cm.reconstructionCost(1e9, 1e9)))
    val sol = OptRet.solve(OptProblem(nodes, edges, cm))
    assert(sol.retained == Set("p"))
    assert(sol.reconstructVia("c").parent == "p")
  }

  test("a hot child (many accesses) is retained instead") {
    val nodes = Seq(node("p", 1e9), node("c", 1e9, acc = 1e6))
    val edges = Seq(OptEdge("p", "c", cm.reconstructionCost(1e9, 1e9)))
    val sol = OptRet.solve(OptProblem(nodes, edges, cm))
    assert(sol.retained == Set("p", "c"))
    assert(sol.reconstructVia.isEmpty)
  }

  test("deletion picks the cheapest retained parent") {
    val nodes = Seq(node("p1", 1e9), node("p2", 1e9), node("c", 1e9, acc = 0.001))
    val edges = Seq(OptEdge("p1", "c", 100.0), OptEdge("p2", "c", 1.0))
    val sol = OptRet.solve(OptProblem(nodes, edges, cm))
    assert(!sol.retained("c"))
    assert(sol.reconstructVia("c").parent == "p2")
  }

  test("evaluate returns None when a deleted node has no retained parent") {
    val nodes = Seq(node("p", 1e9), node("c", 1e9))
    val edges = Seq(OptEdge("p", "c", 1.0))
    val p = OptProblem(nodes, edges, cm)
    val pe = edges.groupBy(_.child).withDefaultValue(Seq.empty[OptEdge])
    assert(OptRet.evaluate(p, nodes, pe, Set.empty).isEmpty)
    assert(OptRet.evaluate(p, nodes, pe, Set("p")).isDefined)
  }

  test("duplicate node names are rejected") {
    intercept[IllegalArgumentException](OptProblem(Seq(node("a", 1.0), node("a", 2.0)), Seq.empty, cm))
  }

  test("solution is always feasible: every deleted node has a retained parent") {
    val rng = new Random(7)
    val nodes = (0 until 12).map(i => node(s"n$i", 1e8 + rng.nextDouble() * 1e9, rng.nextDouble() * 10))
    val edges = for {
      i <- 1 until 12
      j <- 0 until i if rng.nextDouble() < 0.3
    } yield OptEdge(s"n$j", s"n$i", rng.nextDouble() * 10)
    val p = OptProblem(nodes, edges, cm)
    val sol = OptRet.solve(p)
    val deleted = nodes.map(_.name).filterNot(sol.retained)
    deleted.foreach { d =>
      val e = sol.reconstructVia(d)
      assert(e.child == d && sol.retained(e.parent), s"deleted $d lacks retained parent")
    }
  }

  /** Exactness: branch-and-bound matches exhaustive brute force. */
  for (trial <- 0 until 30) {
    test(s"B&B equals brute force on random graphs (trial $trial)") {
      val rng = new Random(900 + trial)
      val n = 2 + rng.nextInt(8)
      val nodes = (0 until n).map { i =>
        node(s"n$i", 1e7 + rng.nextDouble() * 1e10, rng.nextDouble() * rng.nextInt(3), rng.nextDouble() * 8)
      }
      val edges = (for {
        i <- 0 until n
        j <- 0 until n if i != j && rng.nextDouble() < 0.35
      } yield OptEdge(s"n$i", s"n$j", rng.nextDouble() * math.pow(10, rng.nextInt(4)))).distinct
      val p = OptProblem(nodes, edges, cm)
      val bb = OptRet.solve(p)
      val bf = BruteForce.solve(p)
      assert(math.abs(bb.cost - bf.cost) < math.max(1e-9, bf.cost * 1e-9),
        s"bb=${bb.cost} bf=${bf.cost} retained bb=${bb.retained} bf=${bf.retained}")
    }
  }

  test("a component above bbLimit keeps every node; the default limit deletes") {
    val nodes = Seq(node("a", 1e9), node("b", 1e9, acc = 0.0), node("c", 1e9, acc = 0.0))
    val p = OptProblem(nodes, Seq(OptEdge("a", "b", 1.0), OptEdge("b", "c", 1.0)), cm)
    val whole = OptRet.solve(p, bbLimit = 2)
    assert(whole.retained == Set("a", "b", "c"))
    assert(whole.reconstructVia.isEmpty)
    assert(math.abs(whole.cost - nodes.map(p.retentionCost).sum) < 1e-9)
    assert(OptRet.solve(p).retained.size < nodes.size)
  }

  test("component decomposition: two independent families solved independently") {
    val nodes = Seq(node("a", 1e9), node("b", 1e9, acc = 0.0), node("x", 1e9), node("y", 1e9, acc = 0.0))
    val edges = Seq(OptEdge("a", "b", 1.0), OptEdge("x", "y", 1.0))
    val sol = OptRet.solve(OptProblem(nodes, edges, cm))
    assert(sol.retained == Set("a", "x"))
  }

  test("2-cycle (exact duplicates) deletes exactly one of the two") {
    val nodes = Seq(node("a", 1e9, acc = 0.0), node("b", 1e9, acc = 0.0))
    val edges = Seq(OptEdge("a", "b", 1.0), OptEdge("b", "a", 1.0))
    val sol = OptRet.solve(OptProblem(nodes, edges, cm))
    assert(sol.retained.size == 1)
  }
}
