package r2d2bench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionStart}

import scala.collection.mutable.ArrayBuffer

/** One traced layer call: wall interval plus the Spark work credited to it. */
final class Span(val id: Int, val name: String, val parent: Int, val startNs: Long) {
  @volatile var endNs: Long = startNs
  var jobs = 0L
  var tasks = 0L
  var taskNs = 0L
  var inputBytes = 0L
  var scanRows = 0L
  var shuffleBytes = 0L
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Records one span per layer call and credits every Spark job, and the
  * tasks of its stages, to the span that was open on the driver when the job
  * was submitted. The open span travels with the job as a local property,
  * which threads started inside the span inherit, so jobs submitted from a
  * layer's own thread pool are credited correctly.
  *
  * Rows read are counted by the scan operators' "number of output rows"
  * metric: the tasks' input metrics count one record per columnar batch when
  * parquet is read vectorized.
  *
  * Spans are kept in memory; [[json]] renders them once the run is over.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  private val Key = "r2d2bench.span"
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private val stageSpan = new ConcurrentHashMap[Int, Span]()
  private val scanRowMetrics = ConcurrentHashMap.newKeySet[Long]()
  private val t0 = System.nanoTime()

  sc.addSparkListener(this)

  def span[A](name: String)(f: => A): A = {
    val s = new Span(spans.size, name, open.headOption.map(_.id).getOrElse(-1), System.nanoTime())
    spans.synchronized(spans += s)
    open = s :: open
    sc.setLocalProperty(Key, s.id.toString)
    try f
    finally {
      s.endNs = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(Key, open.headOption.map(_.id.toString).orNull)
    }
  }

  /** Block until all listener events so far are counted, then detach. */
  def finish(): Unit = {
    org.apache.spark.ListenerDrain(sc)
    sc.removeSparkListener(this)
    sc.setLocalProperty(Key, null)
  }

  def all: Seq[Span] = spans.toSeq
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val id = Option(e.properties).flatMap(p => Option(p.getProperty(Key))).map(_.toInt)
    id.foreach { i =>
      val s = spans.synchronized(spans(i))
      s.synchronized(s.jobs += 1)
      e.stageIds.foreach(stageSpan.put(_, s))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val s = stageSpan.get(e.stageId)
    if (s != null && e.taskMetrics != null) s.synchronized {
      val m = e.taskMetrics
      s.tasks += 1
      s.taskNs += m.executorRunTime * 1000000L
      s.inputBytes += m.inputMetrics.bytesRead
      s.scanRows += e.taskInfo.accumulables.iterator
        .filter(a => scanRowMetrics.contains(a.id)).flatMap(_.update).collect { case n: Long => n }.sum
      s.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  // A query's plan is announced before its jobs run, and again on every
  // adaptive re-plan; remember the row counters of its scans.
  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart          => noteScans(x.sparkPlanInfo)
    case x: SparkListenerSQLAdaptiveExecutionUpdate => noteScans(x.sparkPlanInfo)
    case _                                          =>
  }

  private def noteScans(p: SparkPlanInfo): Unit = {
    if (p.nodeName.startsWith("Scan "))
      p.metrics.filter(_.name == "number of output rows").foreach(m => scanRowMetrics.add(m.accumulatorId))
    p.children.foreach(noteScans)
  }

  def json: Json.Obj = Json.obj("spans" -> spans.toSeq.map { s =>
    Json.obj(
      "id" -> s.id, "name" -> s.name, "parent" -> s.parent,
      "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6,
      "jobs" -> s.jobs, "tasks" -> s.tasks, "task_s" -> s.taskNs / 1e9,
      "scan_rows" -> s.scanRows, "input_mb" -> s.inputBytes / 1048576.0,
      "shuffle_mb" -> s.shuffleBytes / 1048576.0,
    )
  })
}
