package repro.util

import org.scalatest.funsuite.AnyFunSuite

class ParSpec extends AnyFunSuite {

  test("results come back in input order for 0, 1 and 50 elements") {
    for (n <- Seq(0, 1, 50)) {
      val xs = (0 until n).toSeq
      // Later elements finish first, so completion order is reversed.
      val out = Par.map(xs) { x => Thread.sleep((n - x) % 5L); x * 2 }
      assert(out == xs.map(_ * 2), s"n = $n")
    }
  }

  test("an exception thrown by f reaches the caller") {
    val e = intercept[IllegalStateException] {
      Par.map(0 until 20) { x => if (x == 13) throw new IllegalStateException("boom") else x }
    }
    assert(e.getMessage == "boom")
  }
}
