package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.Cast
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DataType, MapType, StringType, StructType}

import scala.jdk.CollectionConverters._

import repro.stats.StatsCatalog.qcol
import repro.util.Par

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
    * drew a pivot from. It no longer steers sampling; a pivot is now the
    * value in the row with the smallest salted content hash.
    */
  val pivotCandidates: Int = 64
  /** How many children, parents or join-confirmed edges are processed concurrently. */
  val parallelism: Int = Par.Threads
}

/** Result of content-level pruning.
  *
  * @param probeCount Σ over edges of the child's probes that drew rows (an
  *                   edge with no common columns has none)
  */
final case class CLPResult(
    graph: ContainmentGraph,
    pruned: Set[Edge],
    probeCount: Long,
)

/** Algorithm 3 (CLP): for each surviving edge x → y, sample up to `t` rows of
  * the child y via a WHERE filter on each of `s` sampled common columns, and
  * check every sampled row against the parent x over **all** common columns
  * (the full row tuple — column-wise set containment is not enough, paper
  * footnote 6). Any sampled row missing from x disproves `y ⊆ x` and the
  * edge is pruned. True containment edges can never be pruned: every row of
  * y, sampled or not, is present in x.
  *
  * The edges are checked in three batched phases, each spread over [[Par]]:
  *
  *  - (a) '''One sample per child.''' Edges are grouped by (child, common
  *     columns); SGB only emits edges with child.schema ⊆ parent.schema, so
  *     a group is one child. Probe j's pivot is its search column's value in
  *     the non-null row with the smallest `xxhash64` salted by (seed, child,
  *     j), and its rows are the ≤ `t` distinct rows holding that pivot with
  *     the smallest salted hashes. Both are functions of the child's content
  *     only, so verdicts do not depend on partitioning.
  *  - (b) '''One hash scan per parent.''' A narrow scan hashes the parent
  *     projected onto each incoming child's columns and keeps the hashes
  *     found in that child's sample.
  *  - (c) '''Verdicts.''' An edge whose sampled rows were all found is
  *     kept: a hash collision can only keep an edge. An edge with a missing
  *     hash is pruned straight away when every common column is
  *     [[hashExact]] on both sides, since equal values of one type hash
  *     equal (Spark's `xxhash64` also equates `-0.0` with `0.0` and every NaN,
  *     as `<=>` does). Any other such edge (int vs long, float vs double,
  *     decimals of different scale, date vs timestamp, non-binary
  *     collations, where `<=>` coerces but the hashes differ) is pruned only
  *     if a null-safe left-anti join of its missing rows against the parent
  *     returns a row; there a child column whose type differs from the
  *     parent's is try-cast to it, and a value the cast changes matches
  *     nothing.
  *
  * Every Spark job is described as `clp: sample`, `clp: scan` or
  * `clp: confirm`, after its phase.
  *
  * Search columns are drawn from the scalar leaves only: an array (or a map,
  * flattened to sorted entries) has no literal to filter by. Such leaves
  * still take part in the hashes and the join.
  */
object CLP {

  /** Probe results of one (child, common columns) group: the rows each probe
    * drew, keyed by their unsalted content hash.
    */
  private[core] final case class Sample(common: Seq[String], schema: StructType, probes: Seq[Map[Long, Row]]) {
    val rows: Map[Long, Row] = probes.foldLeft(Map.empty[Long, Row])(_ ++ _)
    def drawn: Long = probes.count(_.nonEmpty).toLong
  }

  def prune(
      graph: ContainmentGraph,
      dfs: String => DataFrame,
      schemas: String => SchemaSet,
      cfg: CLPConfig = CLPConfig(),
  ): CLPResult = {
    val edges = graph.edges.toSeq.sortBy(e => (e.parent, e.child))
    val groupOf = edges.map(e => e -> (e.child, schemas(e.child).tokens.intersect(schemas(e.parent).tokens).toSeq.sorted))
      .filter(_._2._2.nonEmpty).toMap
    val probed = edges.filter(groupOf.contains)

    // (a) one sample per (child, common columns)
    val groups = probed.map(groupOf).distinct
    val samples = groups.zip(Par.map(groups) { case (c, common) =>
      phase(dfs(c), "sample")(sample(c, dfs(c), common, cfg))
    }).toMap
    val sampleOf = (e: Edge) => samples(groupOf(e))

    // (b) one scan per parent, over every incoming edge whose child drew rows
    val byParent = probed.filter(sampleOf(_).rows.nonEmpty).groupBy(_.parent).toSeq.sortBy(_._1)
    val found = Par.map(byParent) { case (p, es) =>
      es.zip(phase(dfs(p), "scan")(foundHashes(dfs(p), es.map(sampleOf))))
    }.flatten

    // (c) a hash miss prunes a hash-exact edge; any other edge with one is
    // pruned only if the join confirms it
    val suspects = found.flatMap { case (e, hit) =>
      val missing = sampleOf(e).rows.filter { case (h, _) => !hit(h) }.values.toSeq
      if (missing.isEmpty) None else Some(e -> missing)
    }
    val (proven, unproven) = suspects.partition { case (e, _) =>
      val (p, c) = (dfs(e.parent).schema, dfs(e.child).schema)
      sampleOf(e).common.forall(t => hashExact(c(t).dataType, p(t).dataType))
    }
    val confirmed = Par.map(unproven) { case (e, rows) =>
      e -> phase(dfs(e.parent), "confirm")(refutes(dfs(e.parent), sampleOf(e), rows))
    }.collect { case (e, true) => e }
    val pruned = proven.map(_._1).toSet ++ confirmed

    CLPResult(graph.removeEdges(pruned), pruned, probed.map(sampleOf(_).drawn).sum)
  }

  /** Can a content-hash miss on this column stand as proof that the value is
    * absent? Only when both sides hash it alike: the same type at every
    * depth (nullability aside, which `xxhash64` does not read; struct field
    * names included) and every string in the binary collation.
    */
  private[core] def hashExact(child: DataType, parent: DataType): Boolean = (child, parent) match {
    case (a: ArrayType, b: ArrayType)   => hashExact(a.elementType, b.elementType)
    case (a: MapType, b: MapType)       => hashExact(a.keyType, b.keyType) && hashExact(a.valueType, b.valueType)
    case (a: StructType, b: StructType) =>
      a.length == b.length && a.fields.zip(b.fields).forall { case (f, g) => f.name == g.name && hashExact(f.dataType, g.dataType) }
    case (a: StringType, b: StringType) => a.collationId == StringType.collationId && b.collationId == StringType.collationId
    case _                              => child == parent
  }

  /** Runs `body` with its Spark jobs described as `clp: <name>`, then puts
    * back the thread's previous description. Only the description is set:
    * job groups and other local properties stay the caller's.
    */
  private def phase[A](df: DataFrame, name: String)(body: => A): A = {
    val sc = df.sparkSession.sparkContext
    val key = "spark.job.description"
    val previous = sc.getLocalProperty(key)
    sc.setJobDescription(s"clp: $name")
    try body finally sc.setLocalProperty(key, previous)
  }

  /** Phase (a): two Spark actions, one for every probe's pivot and one for
    * every probe's rows, each a per-partition pass merged on the driver.
    */
  private[core] def sample(child: String, df: DataFrame, common: Seq[String], cfg: CLPConfig): Sample = {
    val cols: Seq[Column] = common.map(qcol)
    val schema = df.select(cols: _*).schema
    val rng = new scala.util.Random(cfg.seed ^ child.hashCode.toLong)
    val scalar = common.filter(c => df.schema(c).dataType match {
      case _: ArrayType | _: MapType | _: StructType => false
      case _                                         => true
    })
    val search = rng.shuffle(scalar).take(math.max(1, cfg.s))
    val k = search.size
    if (k == 0) return Sample(common, schema, Nil)
    // Salting with the child's name keeps children that share rows from
    // drawing the same rows.
    val salted = search.indices.map(j => xxhash64(Seq(lit(cfg.seed), lit(child), lit(j)) ++ cols: _*))

    val pivotCols = search.indices.flatMap(j => Seq(when(qcol(search(j)).isNotNull, salted(j)), qcol(search(j))))
    val minima = df.select(pivotCols: _*).rdd.mapPartitions { it =>
      val best = Array.fill[Option[(Long, Any)]](k)(None)
      it.foreach { r =>
        for (j <- 0 until k if !r.isNullAt(2 * j)) {
          val h = r.getLong(2 * j)
          if (best(j).forall(_._1 > h)) best(j) = Some(h -> r.get(2 * j + 1))
        }
      }
      Iterator.single(best)
    }.collect()
    val pivots = (0 until k).map(j => minima.flatMap(_(j)).minByOption(_._1).map(_._2))
    if (pivots.forall(_.isEmpty)) return Sample(common, schema, Nil)

    val t = cfg.t
    val hit = search.indices.map(j => pivots(j).fold(lit(false))(p => coalesce(qcol(search(j)) === lit(p), lit(false))))
    val tops = df.select((hit ++ salted :+ xxhash64(cols: _*)) ++ cols: _*).where(hit.reduce(_ || _))
      .rdd.mapPartitions { it =>
        val best = Array.fill(k)(new java.util.TreeMap[Long, (Long, Row)]())
        it.foreach { r =>
          for (j <- 0 until k if r.getBoolean(j)) {
            val h = r.getLong(k + j)
            val top = best(j)
            if (top.size < t || h < top.lastKey) {
              top.put(h, (r.getLong(2 * k), Row.fromSeq(r.toSeq.drop(2 * k + 1))))
              if (top.size > t) top.pollLastEntry()
            }
          }
        }
        best.iterator.zipWithIndex.flatMap { case (top, j) => top.asScala.iterator.map { case (h, row) => (j, h, row) } }
      }.collect()
    val probes = (0 until k).map { j =>
      tops.filter(_._1 == j).sortBy(_._2).distinctBy(_._2).take(t).map(_._3).toMap
    }
    Sample(common, schema, probes)
  }

  /** Phase (b): one narrow scan of the parent; for each sample, the sampled
    * content hashes found among the parent's rows projected onto its columns.
    */
  private def foundHashes(parentDf: DataFrame, samples: Seq[Sample]): Seq[Set[Long]] = {
    val n = samples.size
    val hits = samples.map { s =>
      val h = xxhash64(s.common.map(qcol): _*)
      when(h.isin(s.rows.keys.toSeq: _*), h)
    }
    val perPartition = parentDf.select(hits: _*).where(hits.map(_.isNotNull).reduce(_ || _))
      .rdd.mapPartitions { it =>
        val seen = Array.fill(n)(Set.newBuilder[Long])
        it.foreach(r => for (g <- 0 until n if !r.isNullAt(g)) seen(g) += r.getLong(g))
        Iterator.single(seen.map(_.result()))
      }.collect()
    (0 until n).map(g => perPartition.flatMap(_(g)).toSet)
  }

  /** Phase (c), for an edge that is not hash-exact: does some row of `rows`
    * (drawn by `s`) miss from the parent under a null-safe join on all of
    * the sample's columns?
    */
  private[core] def refutes(parentDf: DataFrame, s: Sample, rows: Seq[Row]): Boolean = {
    val sampled = parentDf.sparkSession.createDataFrame(rows.asJava, s.schema).alias("l")
    val parentSide = parentDf.select(s.common.map(qcol): _*).alias("r")
    val cond = s.common.map { t =>
      sameValue(col(s"l.`$t`"), s.schema(t).dataType, col(s"r.`$t`"), parentSide.schema(t).dataType)
    }.reduce(_ && _)
    // Tables here are small in absolute terms; hint the join so the
    // globally-disabled auto-broadcast does not force a full shuffle.
    sampled.join(parentSide.hint("broadcast"), cond, "left_anti").collect().nonEmpty
  }

  /** Null-safe equality of child value `c` (type `ct`) and parent value `p`
    * (type `pt`). Where the types differ, `<=>` fails on types with no common
    * one (boolean vs int) and on a string that does not parse, so `c` is
    * try-cast to `pt` and matches only if it casts back to itself: a value
    * the cast rounds (double 1.5 to int 1) or fails on matches nothing. Where
    * Spark cannot cast between the types (an array and a scalar), only nulls match.
    */
  private def sameValue(c: Column, ct: DataType, p: Column, pt: DataType): Column =
    if (ct == pt) c <=> p
    else if (Cast.canTryCast(ct, nullable(pt)) && Cast.canTryCast(pt, nullable(ct))) {
      val cp = c.try_cast(nullable(pt))
      cp <=> p && cp.try_cast(nullable(ct)) <=> c
    } else c.isNull && p.isNull

  /** `dt` with nulls allowed at every depth, so any value of its shape casts to it. */
  private def nullable(dt: DataType): DataType = dt match {
    case a: ArrayType  => ArrayType(nullable(a.elementType), containsNull = true)
    case m: MapType    => MapType(nullable(m.keyType), nullable(m.valueType), valueContainsNull = true)
    case s: StructType => StructType(s.fields.map(f => f.copy(dataType = nullable(f.dataType), nullable = true)))
    case other         => other
  }
}
