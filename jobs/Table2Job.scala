package repro.jobs

import repro.exp._

/** Reproduces Table 2: edge counts per pipeline stage on the Table-Union and
  * Kaggle synthetic-lake analogs.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("r2d2-table2")
    val runs = new RunCache(spark, JobSession.scale(args))
    val outs = Seq("tableUnion", "kaggle").map(n => n -> runs(n)).toMap
    println(EdgeCountExperiments.table2(outs))
    spark.stop()
  }
}
