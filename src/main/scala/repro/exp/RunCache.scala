package repro.exp

import org.apache.spark.sql.SparkSession

/** Memoizes one pipeline run per lake profile so the table experiments
  * (Tables 1, 3, 5 share the same lakes, etc.) don't regenerate or rerun.
  */
final class RunCache(spark: SparkSession, scale: Double = 1.0) {
  private val cache = scala.collection.mutable.Map.empty[String, PipelineOutput]

  def apply(profile: String): PipelineOutput =
    cache.getOrElseUpdate(profile, PipelineRunner.run(spark, Profiles.byName(profile, scale)))
}
