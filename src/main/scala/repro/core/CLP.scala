package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{
  And, BoundReference, Cast, CollationAwareXxHash64, EqualNullSafe, EvalMode, Expression, If, IsNotNull, IsNull,
  Literal, UnsafeProjection,
}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.{ArrayType, DataType, LongType, MapType, StructType}

import scala.jdk.CollectionConverters._

import repro.util.{Jobs, Par}

/** Parameters of content-level pruning (§4.3, §6.6): Alg. 3's `s` and `t`.
  *
  * @param s    max number of search columns to sample WHERE-filters from
  * @param t    max rows sampled from the child per probe
  * @param seed RNG seed; probes are deterministic in (seed, child content)
  */
final case class CLPConfig(
    s: Int = 4,
    t: Int = 10,
    seed: Long = 42,
) {
  /** Reported only: how many leading child values the earlier per-edge CLP
    * drew a pivot from. It no longer steers sampling: a probe's pivot is now
    * the class of search values with the least salted value hash, uniform
    * over the column's distinct values.
    */
  val pivotCandidates: Int = 64
  /** Reported only: the driver-side pool size ([[Par.Threads]]) that
    * ingest flattens datasets, reads footers and plans its stats job on, and
    * that CLP plans its datasets on. Ingest's stats and CLP's sampling and
    * scan phases are one Spark job each, whatever the number of datasets.
    */
  val parallelism: Int = Par.Threads
}

/** Result of content-level pruning.
  *
  * @param probeCount Σ over edges of the child's probes that drew rows (a
  *                   foreign edge has none)
  */
final case class CLPResult(
    graph: ContainmentGraph,
    pruned: Set[Edge],
    probeCount: Long,
)

/** Algorithm 3 (CLP): for each surviving edge x → y, sample up to `t` rows of
  * the child y via a WHERE filter on each of `s` sampled columns of y, and
  * check every sampled row against the parent x over **all** of y's columns
  * (the full row tuple — column-wise set containment is not enough, paper
  * footnote 6). Any sampled row missing from x disproves `y ⊆ x` and the
  * edge is pruned. True containment edges can never be pruned: every row of
  * y, sampled or not, is present in x. A foreign edge, whose child has a
  * column its parent lacks, is no containment by definition and is pruned
  * without a probe; SGB (Thm 4.1) and §7.1 updates ([[SchemaSet.edges]])
  * emit none.
  *
  * Each dataset CLP reads is planned once per call: its frame, narrowed to
  * the columns CLP reads, becomes a physical plan (`queryExecution.toRdd`),
  * planned concurrently over [[Par]]; a child's plan holds its own columns,
  * sorted. Phases (a) and (b) run Catalyst expressions (`UnsafeProjection`s
  * built inside each task) over those plans, one Spark job per round for all
  * datasets together. Every hash is `CollationAwareXxHash64` with seed 42:
  *
  *  - (a) '''One sample per child''' (one job). Probe j's pivot is the class
  *     of its search column's non-null values with the least value hash, the
  *     hash of the value salted by (seed, child, j); two distinct values with
  *     equal hashes share the class. Its rows are the ≤ `t` distinct rows
  *     holding the pivot with the smallest hashes of the row, salted alike.
  *     One per-partition pass finds them: each partition keeps its least
  *     value hash and the rows holding it. Both are functions of the child's
  *     content only, so verdicts do not depend on partitioning, and a larger
  *     `s` or `t` only adds rows.
  *  - (b) '''One hash scan per parent''' (one job). On the driver, each
  *     sampled row becomes the key it must find in the parent: a child
  *     column whose type differs from the parent's is try-cast to the
  *     parent's type (in the session time zone), and the hash of the row is
  *     its key. A row is kept only if every cast casts back to the child's
  *     value; where Spark cannot cast between the types (an array and a
  *     scalar) the value must be null. So a value the cast rounds (double 1.5
  *     to int 1) or fails on (string 'abc' to int) has no key. Each parent's
  *     rows are hashed projected onto each incoming child's columns.
  *
  * An edge is pruned when a sampled row has no key or its key is not among
  * the parent's hashes; a hash collision can only keep an edge. Equal values
  * of one type hash equal: the hash equates `-0.0` with `0.0` and every NaN,
  * and strings by their collation key, as `<=>` does. So a call runs two
  * Spark jobs, described `clp: sample` and `clp: scan` after their phases.
  * Planning runs no job: a frame's shuffle stage runs inside the first job
  * that reads its plan, and later jobs reuse its output.
  *
  * Search columns are drawn from the scalar leaves only: an array (or a map,
  * flattened to sorted entries) has no literal to filter by. Such leaves
  * still take part in the hashes.
  */
object CLP {

  /** Probe results of one child: the rows each probe drew, of the child
    * plan's `schema`. They are `UnsafeRow`s, so `rows` are the distinct drawn
    * rows by their bytes.
    */
  private[core] final case class Sample(schema: StructType, probes: Seq[Seq[InternalRow]]) {
    val rows: Seq[InternalRow] = probes.flatten.distinct
    def drawn: Long = probes.count(_.nonEmpty).toLong
  }

  def prune(
      graph: ContainmentGraph,
      dfs: String => DataFrame,
      schemas: String => SchemaSet,
      cfg: CLPConfig = CLPConfig(),
  ): CLPResult = {
    val edges = graph.edges.toSeq.sortBy(e => (e.parent, e.child))
    val (probed, foreign) = edges.partition(e => schemas(e.child).subsetOf(schemas(e.parent)))
    if (probed.isEmpty) return CLPResult(graph.removeEdges(foreign), foreign.toSet, 0L)

    // every dataset CLP reads, narrowed to the columns it reads, planned once
    val cols = probed.flatMap(e => Seq(e.child, e.parent).map(_ -> schemas(e.child).tokens))
      .groupMapReduce(_._1)(_._2)(_ ++ _).map { case (n, ts) => n -> ts.toSeq.sorted }
    val names = cols.keys.toSeq.sorted
    val spark = dfs(names.head).sparkSession
    val plans = names.zip(Par.map(names)(n => new Plan(dfs(n), cols(n)))).toMap

    // (a) one sample per child
    val children = probed.map(_.child).distinct
    val samples = children.zip(Jobs.described(spark, "clp: sample")(sample(children, plans, cfg))).toMap

    // (b) one scan of every parent, over every incoming edge whose child drew
    // rows; an edge is pruned when one of them is not found
    val scanned = probed.filter(e => samples(e.child).rows.nonEmpty)
    val found = Jobs.described(spark, "clp: scan")(foundRows(scanned.map(e => plans(e.parent) -> samples(e.child))))
    val pruned = scanned.zip(found).collect { case (e, hit) if hit.size < samples(e.child).rows.size => e }.toSet ++ foreign

    CLPResult(graph.removeEdges(pruned), pruned, probed.map(e => samples(e.child).drawn).sum)
  }

  /** A dataset's frame narrowed to `cols` and planned once: analysis,
    * physical planning and code generation happen here, and phases (a) and
    * (b) only run `rdd`.
    */
  private[core] final class Plan(df: DataFrame, cols: Seq[String]) {
    private val flat = df.select(cols.map(SchemaSet.qcol): _*)
    val schema: StructType = flat.schema
    val rdd: RDD[InternalRow] = flat.queryExecution.toRdd
    val timeZone: String = df.sparkSession.conf.get(SQLConf.SESSION_LOCAL_TIMEZONE.key)

    /** Catalyst references to `tokens` in the rows of `rdd`. */
    def refs(tokens: Seq[String]): Seq[BoundReference] = tokens.map { t =>
      val i = schema.fieldIndex(t)
      BoundReference(i, schema(i).dataType, schema(i).nullable)
    }
  }

  /** The one hash CLP computes: `CollationAwareXxHash64` of `cs`, seed 42. */
  private def hash(cs: Seq[Expression]): Expression = CollationAwareXxHash64(cs, 42L)

  /** Phase (a): one Spark job over the union of the children's plans, a
    * per-partition pass merged on the driver: each probe keeps the entries
    * at its least value hash over all partitions, then the ≤ `t` distinct
    * rows with the smallest salted hashes. Returns one sample per child.
    */
  private[core] def sample(children: Seq[String], plans: String => Plan, cfg: CLPConfig): Seq[Sample] = {
    val specs = children.map(c => new Probes(c, plans(c), cfg))
    val tops = Jobs.collectAll(specs.indices.filter(specs(_).k > 0).map(g => specs(g).tops(g, cfg.t))).groupBy(x => (x._1, x._2))
    specs.zipWithIndex.map { case (p, g) =>
      val probes = (0 until p.k).map { j =>
        val drawn = tops.getOrElse((g, j), Array.empty)
        val least = drawn.map(_._3).minOption
        drawn.filter(x => least.contains(x._3)).sortBy(_._4).distinctBy(_._4).take(cfg.t).map(_._5).toSeq
      }
      Sample(p.plan.schema, probes)
    }
  }

  /** Alg. 3's probes of one child, over the columns of its plan. Probe j
    * filters by search column j: its rows are those whose search value has
    * the least value hash, the hash of the value salted by (seed, child, j),
    * so values equal under the column's collation (and -0.0 and 0.0) form
    * one class. Among them, rows are ranked by the hash of the row with the
    * same salt. Salting with the child's name keeps children that share rows
    * from drawing the same rows.
    */
  private final class Probes(child: String, val plan: Plan, cfg: CLPConfig) {
    private val search = {
      val rng = new scala.util.Random(cfg.seed ^ child.hashCode.toLong)
      val scalar = plan.schema.fields.toSeq.filter(_.dataType match {
        case _: ArrayType | _: MapType | _: StructType => false
        case _                                         => true
      })
      rng.shuffle(scalar.map(_.name)).take(math.max(1, cfg.s))
    }
    val k: Int = search.size
    private val refs = plan.refs(plan.schema.fieldNames.toSeq)
    private val salt = (j: Int) => Seq(Literal(cfg.seed), Literal(child), Literal(j))
    private val values: Seq[Expression] = plan.refs(search).zipWithIndex.map { case (ref, j) =>
      If(IsNotNull(ref), hash(salt(j) :+ ref), Literal(null, LongType))
    }
    private val salted: Seq[Expression] = search.indices.map(j => hash(salt(j) ++ refs))

    /** For each probe, the partition's least value hash over non-null search
      * values and the ≤ `t` rows holding it with the smallest salted hashes:
      * (child, probe, value hash, salted hash, row). A smaller value hash
      * starts the probe's rows over.
      */
    def tops(g: Int, t: Int): RDD[(Int, Int, Long, Long, InternalRow)] = {
      val (k, values, salted, refs) = (this.k, this.values, this.salted, this.refs)
      plan.rdd.mapPartitions { it =>
        val (value, key, row) = (UnsafeProjection.create(values), UnsafeProjection.create(salted), UnsafeProjection.create(refs))
        val least = Array.fill(k)(Long.MaxValue)
        val best = Array.fill(k)(new java.util.TreeMap[Long, InternalRow]())
        it.foreach { r =>
          val vr = value(r)
          lazy val kr = key(r)
          lazy val copied = row(r).copy()
          for (j <- 0 until k if !vr.isNullAt(j)) {
            val v = vr.getLong(j)
            if (v < least(j)) {
              least(j) = v
              best(j).clear()
            }
            if (v == least(j)) {
              val h = kr.getLong(j)
              val top = best(j)
              if (top.size < t || h < top.lastKey) {
                top.put(h, copied)
                if (top.size > t) top.pollLastEntry()
              }
            }
          }
        }
        best.iterator.zipWithIndex.flatMap { case (top, j) =>
          top.asScala.iterator.map { case (h, row) => (g, j, least(j), h, row) }
        }
      }
    }
  }

  /** Phase (b): one Spark job over the union of the parents' plans. For each
    * (parent plan, sample), the indices of the sample's rows that the parent
    * holds: each row's [[parentKeys key]] found among the hashes of the
    * parent's rows projected onto the sample's columns.
    */
  private[core] def foundRows(scans: Seq[(Plan, Sample)]): Seq[Set[Int]] = {
    val keyed = scans.map { case (p, s) => parentKeys(p, s) }
    val rdds = scans.indices.groupBy(scans(_)._1).toSeq.map { case (p, ids) =>
      val hashes = ids.map(i => hash(p.refs(scans(i)._2.schema.fieldNames.toSeq)))
      val wanted = ids.map(i => keyed(i).keySet)
      p.rdd.mapPartitions { it =>
        val hashed = UnsafeProjection.create(hashes)
        val seen = Array.fill(ids.size)(Set.newBuilder[Long])
        it.foreach { r =>
          val hr = hashed(r)
          for (i <- ids.indices) {
            val h = hr.getLong(i)
            if (wanted(i)(h)) seen(i) += h
          }
        }
        ids.iterator.zip(seen.iterator.map(_.result()))
      }
    }
    val found = Jobs.collectAll(rdds).groupMapReduce(_._1)(_._2)(_ ++ _)
    scans.indices.map(i => found.getOrElse(i, Set.empty[Long]).flatMap(keyed(i)))
  }

  /** The key each row of `s` must find among `parent`'s row hashes, mapped to
    * the indices in `s.rows` of the rows that have it. A child column whose
    * type differs from the parent's is try-cast to it; a row is keyed only if
    * every such cast casts back to the child's value, or, where Spark cannot
    * cast between the two types, the value is null. Samples hold at most
    * s·t rows, so the expressions are evaluated interpreted.
    */
  private def parentKeys(parent: Plan, s: Sample): Map[Long, Seq[Int]] = {
    val cast = (e: Expression, dt: DataType) => Cast(e, nullable(dt), Some(parent.timeZone), EvalMode.TRY)
    val (values, lossless) = s.schema.fields.toSeq.zipWithIndex.map { case (f, i) =>
      val (ref, pt) = (BoundReference(i, f.dataType, f.nullable), parent.schema(f.name).dataType)
      if (f.dataType == pt) (ref, Literal(true))
      else if (Cast.canTryCast(f.dataType, nullable(pt)) && Cast.canTryCast(pt, nullable(f.dataType)))
        (cast(ref, pt), EqualNullSafe(cast(cast(ref, pt), f.dataType), ref))
      else (Literal(null, pt), IsNull(ref))
    }.unzip
    val (key, keep) = (hash(values), lossless.reduce(And))
    s.rows.zipWithIndex.collect { case (r, i) if keep.eval(r) == true => key.eval(r).asInstanceOf[Long] -> i }.groupMap(_._1)(_._2)
  }

  /** `dt` with nulls allowed at every depth, so any value of its shape casts to it. */
  private[core] def nullable(dt: DataType): DataType = dt match {
    case a: ArrayType  => ArrayType(nullable(a.elementType), containsNull = true)
    case m: MapType    => MapType(nullable(m.keyType), nullable(m.valueType), valueContainsNull = true)
    case s: StructType => StructType(s.fields.map(f => f.copy(dataType = nullable(f.dataType), nullable = true)))
    case other         => other
  }
}
