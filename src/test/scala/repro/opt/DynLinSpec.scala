package repro.opt

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** OPT-RET on the paper's DYN-LIN case (§5.3, Theorem 5.1): a directed line
  * graph n0 → n1 → … where every deleted node needs its one parent retained.
  * [[OptRet.solve]]'s exact branch-and-bound solves every such component of
  * up to 24 nodes, so these cases check it on lines, against exhaustive
  * enumeration.
  */
class DynLinSpec extends AnyFunSuite {

  /** Unit prices: a node's retention cost is its size, deleting it costs its edge's C_e. */
  private val unit = CostModel(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

  /** The line n0 → … → n(k−1) with retention costs `ret` and deletion costs
    * `del`; `del(0)` is unused, since the root has no parent.
    */
  private def line(ret: Seq[Double], del: Seq[Double]): OptProblem = OptProblem(
    ret.indices.map(i => OptNode(s"n$i", ret(i), accessesPerMonth = 1.0, maintPerMonth = 0.0)),
    (1 until ret.size).map(i => OptEdge(s"n${i - 1}", s"n$i", del(i))),
    unit,
  )

  private def kept(sol: OptSolution): Set[Int] = sol.retained.map(_.drop(1).toInt)

  test("single node: root retained at its retention cost") {
    val sol = OptRet.solve(line(Seq(5.0), Seq(Double.PositiveInfinity)))
    assert(sol.cost == 5.0 && kept(sol) == Set(0))
  }

  test("two nodes: greedy choice between retaining and deleting node 1") {
    val s1 = OptRet.solve(line(Seq(5.0, 10.0), Seq(0.0, 3.0)))
    assert(s1.cost == 8.0 && kept(s1) == Set(0))
    val s2 = OptRet.solve(line(Seq(5.0, 2.0), Seq(0.0, 3.0)))
    assert(s2.cost == 7.0 && kept(s2) == Set(0, 1))
  }

  test("alternating pattern emerges when deletion is cheap") {
    // Deleting is free; retaining costs 1 — but every deleted node needs its
    // predecessor retained, so at least every other node is retained.
    val n = 6
    val sol = OptRet.solve(line(Seq.fill(n)(1.0), Seq.fill(n)(0.0)))
    assert(sol.cost == 3.0)
    (1 until n).foreach(i => assert(kept(sol)(i) || kept(sol)(i - 1), s"node $i unsafe"))
  }

  test("retained set is always feasible (every deleted node's parent kept)") {
    val rng = new Random(3)
    for (_ <- 0 until 50) {
      val n = 1 + rng.nextInt(10)
      val ret = Seq.fill(n)(rng.nextDouble() * 10)
      val del = Double.PositiveInfinity +: Seq.fill(n - 1)(rng.nextDouble() * 10)
      val k = kept(OptRet.solve(line(ret, del)))
      assert(k(0), "root must be retained")
      (1 until n).foreach(i => assert(k(i) || k(i - 1)))
    }
  }

  for (trial <- 0 until 30) {
    test(s"DYN-LIN equals brute force on random line graphs (trial $trial)") {
      val rng = new Random(4200 + trial)
      val n = 1 + rng.nextInt(12)
      val ret = Seq.fill(n)(rng.nextDouble() * 10)
      val del = Double.PositiveInfinity +: Seq.fill(n - 1)(rng.nextDouble() * 10)
      val p = line(ret, del)
      val sol = OptRet.solve(p)
      assert(math.abs(sol.cost - BruteForce.solve(p).cost) < 1e-9)
      // Reported cost matches the reported retained set.
      val recomputed = (0 until n).map(i => if (kept(sol)(i)) ret(i) else del(i)).sum
      assert(math.abs(sol.cost - recomputed) < 1e-9)
    }
  }
}
