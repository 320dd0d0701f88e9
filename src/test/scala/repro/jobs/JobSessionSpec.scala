package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class JobSessionSpec extends AnyFunSuite {

  test("--scale parses a double") {
    assert(JobSession.scale(Array("--scale", "2.5")) == 2.5)
  }

  test("scale defaults to 1.0 without the flag") {
    assert(JobSession.scale(Array.empty) == 1.0)
    assert(JobSession.scale(Array("--other", "3")) == 1.0)
  }

  test("scale finds the flag among other args") {
    assert(JobSession.scale(Array("--foo", "x", "--scale", "0.5")) == 0.5)
  }

  test("tables are picked by number, in the order given, once each") {
    assert(JobSession.tables(Array("7", "1", "2")) == Seq(7, 1, 2))
    assert(JobSession.tables(Array("3", "3")) == Seq(3))
  }

  test("no table number means all seven") {
    assert(JobSession.tables(Array.empty) == (1 to 7))
    assert(JobSession.tables(Array("--scale", "0.25")) == (1 to 7))
  }

  test("an unknown table number or argument is rejected") {
    for (bad <- Seq("0", "8", "x", "--other", "--scale"))
      intercept[IllegalArgumentException](JobSession.tables(Array("1", bad)))
  }

  test("--scale mixes with table numbers on either side") {
    val args = Array("1", "--scale", "0.25", "6")
    assert(JobSession.tables(args) == Seq(1, 6))
    assert(JobSession.scale(args) == 0.25)
    assert(JobSession.tables(Array("--scale", "2", "4")) == Seq(4))
  }
}
