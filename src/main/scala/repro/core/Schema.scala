package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{array_sort, col, map_entries, struct, transform, transform_values, when}
import org.apache.spark.sql.types.{ArrayType, DataType, MapType, StructType}

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

  /** The schema-containment edges between two named schemas: a → b when b's
    * schema is contained in a's, b → a when a's is in b's (both when equal).
    */
  def edges(a: (String, SchemaSet), b: (String, SchemaSet)): Seq[Edge] =
    (if (b._2.subsetOf(a._2)) Seq(Edge(a._1, b._1)) else Nil) ++ (if (a._2.subsetOf(b._2)) Seq(Edge(b._1, a._1)) else Nil)

  /** The one schema flattener (§4.1 step 1): each leaf's dotted token and
    * the column that projects it out of a frame of this schema.
    *
    * Struct fields recurse with a `parent.child` prefix; every other type,
    * arrays and maps included, is a leaf. A map, at any depth of a leaf, is
    * projected as its sorted entries, `array_sort(map_entries(m))`: maps are
    * neither comparable nor hashable in Spark, sorted entry arrays are, and
    * equal maps give equal arrays whatever their insertion order. Maps
    * nested in array elements, map values or struct fields inside them are
    * rewritten first, so the entries can be sorted.
    */
  def leaves(schema: StructType): Seq[(String, Column)] = {
    def walk(token: String, c: Column, dt: DataType): Seq[(String, Column)] = dt match {
      case st: StructType =>
        st.fields.toSeq.flatMap(f => walk(s"$token.${f.name}", c.getField(f.name), f.dataType))
      case _ => Seq(token -> canonical(c, dt))
    }
    schema.fields.toSeq.flatMap(f => walk(f.name, qcol(f.name), f.dataType))
  }

  /** The top-level column named `name`, which may hold dots or backticks:
    * quoted in backticks, each backtick in it doubled.
    */
  def qcol(name: String): Column = col(s"`${name.replace("`", "``")}`")

  /** `c`, of type `dt`, with every map inside it replaced by its sorted entries. */
  private def canonical(c: Column, dt: DataType): Column = dt match {
    case m: MapType =>
      array_sort(map_entries(if (hasMap(m.valueType)) transform_values(c, (_, v) => canonical(v, m.valueType)) else c))
    case a: ArrayType if hasMap(a) => transform(c, canonical(_, a.elementType))
    case st: StructType if hasMap(st) =>
      when(c.isNotNull, struct(st.fields.toSeq.map(f => canonical(c.getField(f.name), f.dataType).as(f.name)): _*))
    case _ => c
  }

  private def hasMap(dt: DataType): Boolean = dt match {
    case _: MapType     => true
    case a: ArrayType   => hasMap(a.elementType)
    case st: StructType => st.fields.exists(f => hasMap(f.dataType))
    case _              => false
  }

  /** The flattened schema set of a (possibly nested) Spark schema. */
  def fromStruct(schema: StructType): SchemaSet = SchemaSet(leaves(schema).map(_._1))
}
