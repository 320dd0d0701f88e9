package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.PaperTables

/** SparkSession setup and argument parsing for the [[Tables]] entry point. */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.ui.enabled", false)
      .getOrCreate()

  /** Optional `--scale X` arg (default 1.0). */
  def scale(args: Array[String]): Double =
    args.sliding(2).collectFirst { case Array("--scale", v) => v.toDouble }.getOrElse(1.0)

  /** The table numbers among `args` besides `--scale X`, in order, once
    * each; none means every table. Anything else, a bare `--scale` too, is rejected.
    */
  def tables(args: Array[String]): Seq[Int] = {
    val flag = args.indexOf("--scale")
    require(flag < 0 || flag + 1 < args.length, "--scale needs a value")
    val numbers = args.indices.filter(i => flag < 0 || i < flag || i > flag + 1).map(args(_)).map { a =>
      a.toIntOption.filter(PaperTables.numbers.contains).getOrElse(throw new IllegalArgumentException(
        s"'$a' is neither a table number (${PaperTables.numbers.mkString(" ")}) nor --scale X"))
    }
    if (numbers.isEmpty) PaperTables.numbers else numbers.distinct
  }
}
