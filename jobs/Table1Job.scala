package repro.jobs

import repro.exp._

/** Reproduces Table 1: edge counts per pipeline stage on the three
  * enterprise-customer lake analogs. `spark-submit --class repro.jobs.Table1Job`.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("r2d2-table1")
    val runs = new RunCache(spark, JobSession.scale(args))
    val outs = Seq("customer1", "customer2", "customer3").map(n => n -> runs(n)).toMap
    println(EdgeCountExperiments.table1(outs))
    spark.stop()
  }
}
