package org.apache.spark

/** Waits until every queued listener event has been delivered, so counters
  * read after a traced call include all of that call's jobs and tasks.
  * `listenerBus` is package-private to Spark, hence this file's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
