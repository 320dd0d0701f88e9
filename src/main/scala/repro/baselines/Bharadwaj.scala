package repro.baselines

import repro.core.{ContainmentGraph, SchemaSet}

import scala.util.Random

/** Modified baseline after Bharadwaj et al. [3] (§6.4.1).
  *
  * The original predicts column joinability from metadata features; following
  * the paper's adaptation, we featurize table *pairs* with column-name
  * similarity and column-name uniqueness, train a classifier on positive
  * samples (ground-truth schema-containment pairs) and random negative
  * samples, and ask it to predict containment. Because the features are
  * lossy summaries (they do not encode the subset relation itself), some
  * true edges are missed — the effect Table 4 reports.
  */
object Bharadwaj {

  /** Pair features: [name Jaccard, mean inverse-document-frequency of shared
    * columns, log size ratio]. `docFreq` counts how many tables contain each
    * column token (uniqueness signal from the original paper).
    */
  def features(a: SchemaSet, b: SchemaSet, docFreq: Map[String, Int], nTables: Int): Array[Double] = {
    val inter = a.tokens.intersect(b.tokens)
    val union = a.tokens.union(b.tokens)
    val jaccard = if (union.isEmpty) 1.0 else inter.size.toDouble / union.size
    val idf =
      if (inter.isEmpty) 0.0
      else inter.toSeq.map(t => math.log(nTables.toDouble / docFreq.getOrElse(t, 1))).sum / inter.size
    val ratio = math.log((math.max(a.size, b.size) + 1.0) / (math.min(a.size, b.size) + 1.0))
    Array(jaccard, idf, ratio)
  }

  final case class Result(correctlyIdentified: Int, notDetected: Int)

  /** Train on GT edges (positives) + random non-edges (negatives), then
    * evaluate how many GT schema edges the classifier recovers (predicts
    * with probability ≥ 0.5).
    */
  def run(
      datasets: Seq[(String, SchemaSet)],
      gtSchema: ContainmentGraph,
      seed: Long = 11,
  ): Result = {
    val byName = datasets.toMap
    val names = datasets.map(_._1)
    val docFreq = datasets.flatMap(_._2.tokens).groupBy(identity).map { case (t, xs) => t -> xs.size }
    val n = datasets.size
    val rng = new Random(seed)

    val positives = gtSchema.edges.toSeq.sortBy(e => (e.parent, e.child))
    val edgeSet = gtSchema.edges.map(e => (e.parent, e.child)).toSet
    val nNeg = math.max(positives.size, 32)
    // Enterprise schema spaces are full of similar-but-not-contained tables
    // (§1.2) — mix "hard" negatives (overlapping schemas, no containment)
    // with random ones so the classifier faces the paper's actual difficulty.
    val hard = (for {
      (na, sa) <- datasets
      (nb, sb) <- datasets
      if na < nb && !edgeSet((na, nb)) && !edgeSet((nb, na))
      if sa.tokens.exists(sb.tokens.contains)
    } yield (na, nb)).sortBy(identity)
    val hardTaken = rng.shuffle(hard).take(nNeg / 2)
    val random = Iterator
      .continually {
        val a = names(rng.nextInt(n)); val b = names(rng.nextInt(n))
        (a, b)
      }
      .filter { case (a, b) => a != b && !edgeSet((a, b)) }
      .take(nNeg - hardTaken.size)
      .toSeq
    val negatives = hardTaken ++ random

    val xs = (positives.map(e => features(byName(e.child), byName(e.parent), docFreq, n)) ++
      negatives.map { case (a, b) => features(byName(b), byName(a), docFreq, n) }).toArray
    val ys = (positives.map(_ => 1) ++ negatives.map(_ => 0)).toArray
    val w = LogisticRegression.train(xs, ys)

    val predicted = positives.count { e =>
      LogisticRegression.predict(w, features(byName(e.child), byName(e.parent), docFreq, n)) >= 0.5
    }
    Result(predicted, positives.size - predicted)
  }
}
