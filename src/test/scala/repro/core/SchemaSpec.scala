package repro.core

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

class SchemaSpec extends AnyFunSuite {

  test("flat schema flattens to its column names") {
    val st = StructType(Seq(StructField("a", IntegerType), StructField("b", StringType)))
    assert(SchemaSet.fromStruct(st).tokens == Set("a", "b"))
  }

  test("tree schema flattens to dotted tokens (paper §4.1 example)") {
    val st = StructType(Seq(
      StructField("product", StructType(Seq(
        StructField("price", DoubleType),
        StructField("id", LongType),
      )))))
    assert(SchemaSet.fromStruct(st).tokens == Set("product.price", "product.id"))
  }

  test("deeply nested structs flatten through every level") {
    val st = StructType(Seq(
      StructField("a", StructType(Seq(
        StructField("b", StructType(Seq(StructField("c", IntegerType)))),
        StructField("d", StringType),
      )))))
    assert(SchemaSet.fromStruct(st).tokens == Set("a.b.c", "a.d"))
  }

  test("array of struct is a single leaf token") {
    val st = StructType(Seq(
      StructField("xs", ArrayType(StructType(Seq(StructField("y", IntegerType)))))))
    assert(SchemaSet.fromStruct(st).tokens == Set("xs"))
  }

  test("map is a single leaf token") {
    val st = StructType(Seq(
      StructField("m", MapType(StringType, StructType(Seq(StructField("v", DoubleType)))))))
    assert(SchemaSet.fromStruct(st).tokens == Set("m"))
  }

  test("leaves inside a struct keep their dotted token") {
    val st = StructType(Seq(
      StructField("s", StructType(Seq(
        StructField("xs", ArrayType(IntegerType)),
        StructField("m", MapType(StringType, LongType)),
      )))))
    assert(SchemaSet.leaves(st).map(_._1) == Seq("s.xs", "s.m"))
  }

  test("scalar array contributes its own path") {
    val st = StructType(Seq(StructField("xs", ArrayType(IntegerType))))
    assert(SchemaSet.fromStruct(st).tokens == Set("xs"))
  }

  test("subsetOf is exact containment") {
    assert(SchemaSet(Set("a", "b")).subsetOf(SchemaSet(Set("a", "b", "c"))))
    assert(!SchemaSet(Set("a", "z")).subsetOf(SchemaSet(Set("a", "b", "c"))))
    assert(SchemaSet(Set("a")).subsetOf(SchemaSet(Set("a"))))
  }

  test("empty schema is contained in anything") {
    assert(SchemaSet(Set.empty[String]).subsetOf(SchemaSet(Set("a"))))
  }

  test("size is token cardinality") {
    assert(SchemaSet(Set("a", "b", "c")).size == 3)
  }
}
