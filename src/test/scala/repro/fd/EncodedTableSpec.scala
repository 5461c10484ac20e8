package repro.fd

import repro.SparkSpec
import repro.fd.{AttrSet => AS}

class EncodedTableSpec extends SparkSpec {

  private val rows = Seq(
    Seq[Any]("x", 1, "p"),
    Seq[Any]("x", 2, "q"),
    Seq[Any]("y", 1, "p"),
    Seq[Any]("y", 2, null),
  )

  test("fromRows encodes by per-column equality") {
    val t = EncodedTable.fromRows(rows, IndexedSeq(0, 1, 2))
    assert(t.nRows == 4 && t.width == 3)
    assert(t.columns(0).toSeq == Seq(0, 0, 1, 1))
    assert(t.columns(1).toSeq == Seq(0, 1, 0, 1))
    assert(t.columns(2).toSeq == Seq(0, 1, 0, 2)) // null is its own code
  }

  test("cardinality counts distinct combinations") {
    val t = EncodedTable.fromRows(rows, IndexedSeq(0, 1, 2))
    assert(t.cardinality(AS.of(0)) == 2)
    assert(t.cardinality(AS.of(0, 1)) == 4)
    assert(t.cardinality(AS.empty) == 1)
  }

  test("empty-table cardinality of empty set is 0") {
    val t = EncodedTable.fromRows(Seq.empty, IndexedSeq(0))
    assert(t.cardinality(AS.empty) == 0)
  }

  test("global/local mapping and globalize/localize round-trip") {
    val t = EncodedTable.fromRows(rows, IndexedSeq(5, 9, 11))
    assert(t.local(9) == 1)
    val localFd  = FD(AS.of(0, 1), 2)
    val globalFd = t.globalize(localFd)
    assert(globalFd == FD(AS.of(5, 9), 11))
    assert(t.localize(globalFd) == localFd)
  }

  test("project keeps requested global attributes") {
    val t = EncodedTable.fromRows(rows, IndexedSeq(5, 9, 11))
    val p = t.project(AS.of(5, 11))
    assert(p.attrIds == IndexedSeq(5, 11))
    assert(p.columns(1).toSeq == t.columns(2).toSeq)
  }

  test("fromDataFrame matches fromRows, nulls included") {
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types._
    val schema = StructType(Seq(
      StructField("a", StringType), StructField("b", IntegerType), StructField("c", StringType)))
    val df = spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(r => Row(r: _*))), schema)
    val t = EncodedTable.fromDataFrame(df, IndexedSeq(0, 1, 2))
    assert(t.nRows == 4)
    // Encoding codes may be permuted (collect order), but partition structure
    // must be identical: compare cardinalities of every subset.
    val ref = EncodedTable.fromRows(rows, IndexedSeq(0, 1, 2))
    AS.allSubsets(AS.universe(3)).foreach { s =>
      assert(t.cardinality(s) == ref.cardinality(s), s"subset ${AS.toSeq(s)}")
    }
  }

  test("fromDataFrame gives every generated column type the codes of its collected rows") {
    import java.sql.{Date, Timestamp}
    import org.apache.spark.sql.Row
    import org.apache.spark.sql.types._
    val schema = StructType(Seq(
      StructField("s", StringType), StructField("i", IntegerType), StructField("l", LongType),
      StructField("d", DoubleType), StructField("m", DecimalType(12, 2)), StructField("t", DateType),
      StructField("ts", TimestampType), StructField("b", BooleanType)))
    def row(k: Int): Row = Row(s"v${k % 3}", k % 2, k.toLong % 4, (k % 3) / 4.0,
      new java.math.BigDecimal(k % 3).movePointLeft(2).setScale(2), Date.valueOf(s"2020-01-0${k % 3 + 1}"),
      Timestamp.valueOf(s"2020-01-01 00:00:0${k % 4}"), k % 2 == 0)
    val rows = (0 until 12).map(row) ++ Seq(Row.fromSeq(Seq.fill(8)(null)), row(5))
    val df   = spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)
    val ids  = IndexedSeq.range(0, 8)
    val t    = EncodedTable.fromDataFrame(df, ids)
    // The codes of the values as `Row`s, numbered in row order.
    val ref  = EncodedTable.fromRows(df.collect().toSeq.map(_.toSeq), ids)
    assert(t.columns.map(_.toSeq).toSeq == ref.columns.map(_.toSeq).toSeq)
    assert(t.columns.forall(_.max >= 2), "every column has several values and a null")
  }

  test("fromDataFrame rejects schema mismatch") {
    val df = spark.range(3).toDF()
    intercept[IllegalArgumentException](EncodedTable.fromDataFrame(df, IndexedSeq(0, 1)))
  }
}
