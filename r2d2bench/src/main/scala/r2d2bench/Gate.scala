package r2d2bench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import org.apache.spark.sql.DataFrame

import repro.core.{ContainmentGraph, Edge, GroundTruth, TableData}
import repro.opt.OptSolution
import repro.stats.StatsCatalog

/** Brute-force ground truth for one lake: the true containment edges
  * (fraction = 1 over the child's columns) and the lake's fingerprint.
  */
final case class Truth(fingerprint: Map[String, String], edges: Set[Edge])

/** What the correctness gate found for one pipeline result. */
final case class Verdict(missed: Int, incorrect: Int, unsafe: Int, planViolations: Seq[String]) {
  def planSafe: Boolean = planViolations.isEmpty
}

object Gate {

  /** All-pairs schema containment, then exact content containment per schema
    * edge, over the flattened datasets — the paper's §6.2 brute force.
    */
  def truth(datasets: Seq[(String, TableData)], fingerprint: Map[String, String]): Truth = {
    val (schemaGraph, _) = GroundTruth.schemaGraph(datasets.map { case (n, t) => n -> t.schema })
    val data = datasets.toMap
    Truth(fingerprint, GroundTruth.contentGraph(schemaGraph, data(_)).graph.edges)
  }

  /** The flattened rows of `df`, as ground truth compares them. */
  def table(name: String, df: DataFrame): TableData = TableData.fromDf(name, StatsCatalog.flatten(df))

  /** Ground truth is computed once per (workload, seed) and kept on disk with
    * the lake fingerprint it was computed for. A later run with the same key
    * must generate a lake with the same fingerprint, or it fails.
    */
  def cached(file: File, fingerprint: Map[String, String])(compute: => Truth): Either[String, Truth] = {
    if (file.isFile) {
      val t = read(file)
      if (t.fingerprint == fingerprint) Right(t)
      else {
        val diff = (t.fingerprint.keySet ++ fingerprint.keySet).toSeq.sorted
          .filter(n => t.fingerprint.get(n) != fingerprint.get(n))
        Left(s"lake fingerprint differs from the one ground truth was computed for: ${diff.mkString(", ")}")
      }
    } else {
      val t = compute
      file.getParentFile.mkdirs()
      Files.write(file.toPath, render(t).getBytes(UTF_8))
      Right(t)
    }
  }

  private def render(t: Truth): String =
    (t.fingerprint.toSeq.sorted.map { case (n, f) => s"fp\t$n\t$f" } ++
      t.edges.toSeq.sortBy(e => (e.parent, e.child)).map(e => s"edge\t${e.parent}\t${e.child}"))
      .mkString("", "\n", "\n")

  private def read(file: File): Truth = {
    val lines = new String(Files.readAllBytes(file.toPath), UTF_8).split("\n").toSeq.filter(_.nonEmpty).map(_.split("\t"))
    Truth(
      lines.collect { case Array("fp", n, f) => n -> f }.toMap,
      lines.collect { case Array("edge", p, c) => Edge(p, c) }.toSet,
    )
  }

  /** Compare a final graph and its deletion plan with ground truth.
    *
    * Safe deletion (§5.1): every deleted node's reconstruction parent must be
    * retained and must be an edge of the graph the plan was built from.
    * A deletion is unsafe when that parent does not truly contain the child.
    */
  def check(graph: ContainmentGraph, plan: OptSolution, truth: Truth): Verdict = {
    val deleted = graph.nodes.filterNot(plan.retained)
    val violations = deleted.toSeq.sorted.flatMap { d =>
      plan.reconstructVia.get(d) match {
        case None => Seq(s"$d deleted without a reconstruction parent")
        case Some(e) =>
          (if (plan.retained(e.parent)) Nil else Seq(s"$d rebuilt from deleted ${e.parent}")) ++
            (if (graph.edges(Edge(e.parent, d))) Nil else Seq(s"$d rebuilt via non-edge ${e.parent}"))
      }
    }
    val unsafe = deleted.count(d => plan.reconstructVia.get(d).forall(e => !truth.edges(Edge(e.parent, d))))
    Verdict(
      missed = truth.edges.count(e => !graph.edges(e)),
      incorrect = graph.edges.count(e => !truth.edges(e)),
      unsafe = unsafe,
      planViolations = violations,
    )
  }
}
