package repro.util

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Bounded-parallelism map for driver-side work over many datasets: planning
  * them (ingest's stats job, CLP), reading parquet footers, generating lake
  * families and ground-truth collects. Spark's scheduler handles concurrent
  * job submission; results return in input order, so callers stay
  * deterministic.
  */
object Par {

  /** The one driver-side pool size, shared by every caller. */
  val Threads = 8

  def map[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    if (xs.size <= 1) return xs.map(f)
    val pool = Executors.newFixedThreadPool(Threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val futures = xs.map(x => Future(f(x)))
      Await.result(Future.sequence(futures), Duration.Inf)
    } finally pool.shutdown()
  }
}
