package r2d2bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.util.Try

import repro.core.{DynamicUpdates, R2D2State}
import repro.stats.StatsCatalog

/** One §7.1 operation on a dataset. `Shrink` and `Grow` switch a present
  * dataset between its full rows and its shrunk version (about 4/5 of the
  * rows, chosen by content hash): `rowsRemoved` and `rowsAdded`.
  */
sealed trait Op { def target: String; def kind: String }
final case class Add(target: String) extends Op { val kind = "add" }
final case class Delete(target: String) extends Op { val kind = "delete" }
final case class Shrink(target: String) extends Op { val kind = "rows_removed" }
final case class Grow(target: String) extends Op { val kind = "rows_added" }

object Updates {

  val Kinds: Seq[String] = Seq("add", "rows_added", "rows_removed", "delete")

  /** Plan `n` operations from `seed`, before anything runs.
    *
    * The kinds are a seeded shuffle of an equal share of each kind; when the
    * drawn kind has no valid target at that point (nothing absent to add,
    * nothing shrunk to grow) the next kind in [[Kinds]] order that has one is
    * used. Targets are drawn uniformly among the valid ones. Every dataset
    * starts present with its full rows. Returns the plan and the final lake:
    * each present dataset with whether it ends shrunk.
    */
  def plan(names: Seq[String], n: Int, seed: Long): (Seq[Op], Map[String, Boolean]) = {
    val rng = new scala.util.Random(seed)
    val kinds = rng.shuffle(Seq.tabulate(n)(i => Kinds(i % Kinds.size)))
    val present = scala.collection.mutable.LinkedHashMap.empty[String, Boolean] // name → shrunk?
    names.foreach(present(_) = false)
    def absent = names.filterNot(present.contains)
    def pick(xs: Seq[String]) = xs(rng.nextInt(xs.size))
    def options(kind: String): Seq[String] = kind match {
      case "add"          => absent
      case "delete"       => if (present.size > 2) present.keys.toSeq.sorted else Nil
      case "rows_removed" => present.collect { case (x, false) => x }.toSeq.sorted
      case "rows_added"   => present.collect { case (x, true) => x }.toSeq.sorted
    }
    val ops = kinds.map { k0 =>
      val k = (Kinds.dropWhile(_ != k0) ++ Kinds).find(options(_).nonEmpty).get
      val x = pick(options(k))
      k match {
        case "add"          => present(x) = false; Add(x)
        case "delete"       => present.remove(x); Delete(x)
        case "rows_removed" => present(x) = true; Shrink(x)
        case "rows_added"   => present(x) = false; Grow(x)
      }
    }
    (ops, present.toMap)
  }

  /** Materialized inputs: each dataset's full and shrunk versions, cached on
    * first use, so an operation's timer never includes producing its input.
    * The shrunk version drops the rows whose content hash is 0 mod 5, so
    * datasets with the same columns drop the same rows.
    */
  final class Inputs(spark: SparkSession, lake: DiskLake) {
    private val cache = scala.collection.mutable.Map.empty[(String, Boolean), DataFrame]
    def apply(name: String, shrunk: Boolean): DataFrame = cache.getOrElseUpdate((name, shrunk), {
      val full = lake.read(spark, name)
      val df =
        if (!shrunk) full
        else full.where(pmod(xxhash64(full.columns.toSeq.sorted.map(c => col(s"`$c`")): _*), lit(5L)) =!= 0)
      val c = df.cache()
      c.count()
      c
    })
    def release(): Unit = { cache.values.foreach(_.unpersist()); cache.clear() }
  }

  /** The input an operation passes to `DynamicUpdates`: dataset, shrunk? */
  def input(op: Op): Option[(String, Boolean)] = op match {
    case Add(x)    => Some(x -> false)
    case Shrink(x) => Some(x -> true)
    case Grow(x)   => Some(x -> false)
    case Delete(_) => None
  }

  final case class Timed(op: Op, ms: Double, examined: Long, failed: Boolean)

  /** Apply `ops` in order, timing each call into `DynamicUpdates`. With a
    * tracer, every operation runs in its own span named after its kind.
    */
  def execute(st0: R2D2State, ops: Seq[Op], in: Inputs, tr: Option[Tracer]): (R2D2State, Seq[Timed]) = {
    var st = st0
    val timed = ops.map { op =>
      val input = Updates.input(op).map { case (x, shrunk) => in(x, shrunk) }
      def call(): (R2D2State, Long) = op match {
        case Add(x)    => DynamicUpdates.addDataset(st, x, input.get, Pipeline.clpCfg)
        case Shrink(x) => DynamicUpdates.rowsRemoved(st, x, input.get, Pipeline.clpCfg)
        case Grow(x)   => DynamicUpdates.rowsAdded(st, x, input.get, Pipeline.clpCfg)
        case Delete(x) => (DynamicUpdates.deleteDataset(st, x), 0L)
      }
      val (outcome, s) = Clock.timed(Try(tr.fold(call())(_.span(s"dyn.${op.kind}")(call()))))
      outcome.foreach { case (next, _) => st = next }
      outcome.failed.foreach(e => Main.log(s"operation $op failed: $e"))
      Timed(op, s * 1000, outcome.map(_._2).getOrElse(0L), outcome.isFailure)
    }
    (st, timed)
  }

  /** A copy of `st` with its own stats catalog, which operations mutate. */
  def fork(st: R2D2State): R2D2State = {
    val cat = new StatsCatalog
    st.catalog.names.foreach(n => cat.put(n, st.catalog(n)))
    st.copy(catalog = cat)
  }

  /** The tail percentile for `n` samples: the highest one with at least ten
    * samples above it, and its value (nearest rank).
    */
  def tail(ms: Seq[Double]): (Double, Double) = {
    val s = ms.sorted
    val idx = math.max(0, s.size - 11)
    (100.0 * (idx + 1) / s.size, s(idx))
  }
}
