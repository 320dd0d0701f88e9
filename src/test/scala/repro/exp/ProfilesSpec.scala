package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** OPT-RET edges need a provenance path, so an OPT-RET component never spans
  * two lake families, and `OptRet.solve` is exact for components of up to its
  * default `bbLimit` of 24 nodes. Every Table's plan is exact only while no
  * family outgrows that limit.
  */
class ProfilesSpec extends AnyFunSuite {

  test("every family of every profile holds at most 24 datasets") {
    val profiles = Seq(Profiles.tiny(), Profiles.customer1(), Profiles.customer2(), Profiles.customer3(),
      Profiles.tableUnion(), Profiles.kaggle())
    for (p <- profiles; f <- p.families) {
      val size = 1 + f.filters + f.chainLen + f.projections + f.addRows + f.addCols +
        f.noiseIn + f.noiseOut + f.duplicates
      assert(size <= 24, s"${p.name} family ${f.prefix}${f.root} has $size datasets")
    }
  }
}
