package repro

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** The type matrix: nested structs, arrays, a map `m`, binary, decimals,
  * sub-millisecond timestamps with and without a time zone, a year-1000
  * timestamp and the dates 1582-10-05..14 (before the Gregorian calendar,
  * where `java.sql` and `java.time` values disagree), NaN, -0.0,
  * strings outside the BMP (where UTF-16 and UTF-8 orders disagree) and
  * null columns. One row per row of `ids`, a frame with a long `id` column.
  */
object TypeMatrix {

  def apply(ids: Dataset[_], m: Column): DataFrame = ids.select(
    col("id"),
    struct(col("id").as("k"), struct((col("id") * 2).as("z")).as("inner")).as("s"),
    array(struct(col("id").as("a"), col("id").cast("string").as("b"))).as("items"),
    array(col("id").cast("int"), (col("id") + 1).cast("int")).as("xs"),
    m.as("m"),
    col("id").cast("string").cast("binary").as("bin"),
    (col("id") / 7).cast("decimal(12,4)").as("dec"),
    ((col("id") - 30) * 1.37).cast("decimal(10,2)").as("dec2"),
    timestamp_micros(lit(1577836800000000L) + col("id") * 1250 - 30000).as("ts"),
    timestamp_micros(lit(1577836800000000L) + col("id") * 1250 - 30000).cast("timestamp_ntz").as("ntz"),
    timestamp_micros(lit(-30610224000000000L) + col("id") * 1250 - 30000).as("oldts"),
    date_from_unix_date((col("id") % 10).cast("int") - 141437).as("gap"),
    when(col("id") % 7 === 3, lit(Double.NaN)).otherwise(col("id") / 4).as("nan"),
    when(col("id") % 5 === 0, lit(-0.0)).otherwise(col("id").cast("double")).as("negz"),
    when(col("id") % 3 === 0, concat(lit("\uD83D\uDE00"), col("id").cast("string")))
      .otherwise(concat(lit("\uFF61"), col("id").cast("string"))).as("astral"),
    lit(null).cast("string").as("nothing"),
    when(col("id") % 3 =!= 0, col("id")).as("sometimes"),
  )
}
