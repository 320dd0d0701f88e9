package repro.util

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import scala.reflect.ClassTag

/** How the pipeline starts its Spark jobs: described, so an event log shows
  * which stage started each job, and one job over many datasets' plans.
  */
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

  /** One Spark job over the union of `rdds`, collected in partition order.
    * Every task deserializes the job's whole RDD graph, every dataset's plan
    * included, so the union is coalesced to twice the core count: one task
    * per partition would repeat that work for each partition of each dataset.
    */
  def collectAll[A: ClassTag](rdds: Seq[RDD[A]]): Array[A] =
    if (rdds.isEmpty) Array.empty[A] else {
      val sc = rdds.head.sparkContext
      sc.union(rdds).coalesce(2 * sc.defaultParallelism).collect()
    }
}
