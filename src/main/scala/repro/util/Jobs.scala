package repro.util

import org.apache.spark.sql.SparkSession

/** Spark job descriptions, so an event log shows which stage started each job. */
object Jobs {

  /** Runs `body` with the Spark jobs it starts (from this thread, or from
    * threads it creates) described as `description`, then puts back the
    * thread's previous description. Only the description is set: job groups
    * and other local properties stay the caller's.
    */
  def described[A](spark: SparkSession, description: String)(body: => A): A = {
    val sc = spark.sparkContext
    val key = "spark.job.description"
    val previous = sc.getLocalProperty(key)
    sc.setJobDescription(description)
    try body finally sc.setLocalProperty(key, previous)
  }
}
