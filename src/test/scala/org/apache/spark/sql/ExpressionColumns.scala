package org.apache.spark.sql

import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.classic.ExpressionUtils

/** Columns built from Catalyst expressions the DataFrame API has no
  * function for; Spark keeps the conversions package-private.
  */
object ExpressionColumns {
  def column(e: Expression): Column = ExpressionUtils.column(e)
  def expression(c: Column): Expression = ExpressionUtils.expression(c)
}
