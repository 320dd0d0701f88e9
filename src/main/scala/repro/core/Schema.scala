package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{array_sort, col, map_entries}
import org.apache.spark.sql.types.{DataType, MapType, StructType}

/** A flattened schema set, as used throughout the R2D2 pipeline (§4.1 step 1).
  *
  * For flat schemas this is just the set of column names; for tree schemas
  * (typical of enterprise workloads) the tree is flattened so tokens are
  * distinct — a root `product` with children `price` and `id` becomes
  * `{product.price, product.id}`.
  */
final case class SchemaSet(tokens: Set[String]) {
  def size: Int = tokens.size

  /** Exact schema containment: every token of this schema appears in `other`. */
  def subsetOf(other: SchemaSet): Boolean = tokens.subsetOf(other.tokens)
}

object SchemaSet {
  def apply(tokens: Iterable[String]): SchemaSet = SchemaSet(tokens.toSet)

  /** The one schema flattener (§4.1 step 1): each leaf's dotted token and
    * the column that projects it out of a frame of this schema.
    *
    * Struct fields recurse with a `parent.child` prefix; every other type,
    * arrays and maps included, is a leaf. A map leaf is projected as its
    * sorted entries, `array_sort(map_entries(m))`: maps are not comparable
    * in Spark, sorted entry arrays are, and equal maps give equal arrays
    * whatever their insertion order.
    */
  def leaves(schema: StructType): Seq[(String, Column)] = {
    def walk(token: String, c: Column, dt: DataType): Seq[(String, Column)] = dt match {
      case st: StructType =>
        st.fields.toSeq.flatMap(f => walk(s"$token.${f.name}", c.getField(f.name), f.dataType))
      case _: MapType => Seq(token -> array_sort(map_entries(c)))
      case _          => Seq(token -> c)
    }
    schema.fields.toSeq.flatMap(f => walk(f.name, col(s"`${f.name}`"), f.dataType))
  }

  /** The flattened schema set of a (possibly nested) Spark schema. */
  def fromStruct(schema: StructType): SchemaSet = SchemaSet(leaves(schema).map(_._1))
}
