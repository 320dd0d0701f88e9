package repro.jobs

import repro.exp.{PaperTables, RunCache}

/** Reproduces the paper's Tables 1–7 over one set of pipeline runs, so
  * tables that share a lake generate and run it once:
  * `spark-submit --class repro.jobs.Tables [N ...] [--scale X]`, where each
  * N picks a table (none: all seven, in order) and X scales every lake.
  */
object Tables {
  def main(args: Array[String]): Unit = {
    val tables = JobSession.tables(args)
    val spark = JobSession.create("r2d2-tables")
    val runs = new RunCache(spark, JobSession.scale(args))
    tables.foreach(n => println(PaperTables(n)(runs)))
    spark.stop()
  }
}
