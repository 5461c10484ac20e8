package repro.fd

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Oracle, PropHelper, SparkSpec}
import repro.fd.{AttrSet => AS}
import org.scalacheck.Gen

class ValidatorSpec extends SparkSpec with PropHelper {

  private def df(rows: Seq[Seq[Any]], nCols: Int) = {
    val schema = StructType((0 until nCols).map(i => StructField(s"a$i", StringType)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(r => Row(r.map(v => if (v == null) null else v.toString): _*))),
      schema)
  }

  private val rows = Seq(
    Seq[Any]("x", "1", "p"),
    Seq[Any]("x", "1", "p"),
    Seq[Any]("y", "2", "p"),
    Seq[Any]("y", "3", "q"),
  )

  test("DriverValidator matches PartitionStore semantics") {
    val v = new DriverValidator(EncodedTable.fromRows(rows, IndexedSeq(0, 1, 2)))
    assert(v.nRows == 4)
    assert(v.holds(AS.of(1), 0))
    assert(!v.holds(AS.of(0), 1))
    assert(v.cardinality(AS.of(0)) == 2)
    assert(v.cardinality(AS.empty) == 1)
    assert(v.isKey(AS.of(1, 2)) == false)
    assert(v.isKey(AS.of(1)) == false) // 1 appears twice
  }

  test("SparkValidator agrees with DriverValidator on every subset") {
    val d   = df(rows, 3)
    val sv  = new SparkValidator(d, d.count())
    val dv  = new DriverValidator(EncodedTable.fromDataFrame(d, IndexedSeq(0, 1, 2)))
    AS.allSubsets(AS.universe(3)).foreach { s =>
      assert(sv.cardinality(s) == dv.cardinality(s), s"card ${AS.toSeq(s)}")
    }
    for (rhs <- 0 until 3; lhs <- AS.allSubsets(AS.remove(AS.universe(3), rhs)))
      assert(sv.holds(lhs, rhs) == dv.holds(lhs, rhs), s"holds ${AS.toSeq(lhs)} -> $rhs")
  }

  test("SparkValidator treats null as an ordinary value") {
    val d  = df(Seq(Seq[Any](null, "1"), Seq[Any](null, "1"), Seq[Any]("x", "2")), 2)
    val sv = new SparkValidator(d, d.count())
    assert(sv.cardinality(AS.of(0)) == 2)
    assert(sv.holds(AS.of(0), 1))
    val dv = new DriverValidator(EncodedTable.fromDataFrame(d, IndexedSeq(0, 1)))
    assert(dv.holds(AS.of(0), 1))
  }

  test("driver and Spark validators agree on signed zeros, NaNs, binary values and nulls") {
    // Spark's grouping takes -0.0 as 0.0, every NaN as one value and binary
    // values by content.
    val negNaN = java.lang.Double.longBitsToDouble(0xfff8000000000000L)
    val schema = StructType(Seq(
      StructField("a0", DoubleType), StructField("a1", BinaryType), StructField("a2", StringType)))
    val d = spark.createDataFrame(spark.sparkContext.parallelize(Seq(
      Row(0.0, Array[Byte](1, 2), "p"),
      Row(-0.0, Array[Byte](1, 2), "p"),
      Row(Double.NaN, Array[Byte](3), "q"),
      Row(negNaN, Array[Byte](3), "q"),
      Row(null, null, "r"),
      Row(null, Array[Byte](3), "r"))), schema)
    val sv = new SparkValidator(d, d.count())
    val dv = new DriverValidator(EncodedTable.fromDataFrame(d, IndexedSeq(0, 1, 2)))
    assert(sv.cardinality(AS.of(0)) == 3 && sv.cardinality(AS.of(1)) == 3)
    AS.allSubsets(AS.universe(3)).foreach { s =>
      assert(sv.cardinality(s) == dv.cardinality(s), s"card ${AS.toSeq(s)}")
    }
    for (rhs <- 0 until 3; lhs <- AS.allSubsets(AS.remove(AS.universe(3), rhs)))
      assert(sv.holds(lhs, rhs) == dv.holds(lhs, rhs), s"holds ${AS.toSeq(lhs)} -> $rhs")
  }

  test("SparkValidator issues no distinct count once its deadline has passed") {
    val d  = df(rows, 3)
    val sv = new SparkValidator(d, rows.size, Deadline.in(0))
    assert(jobsOf(intercept[MinerTimeout](sv.cardinality(AS.of(0)))) == 0)
  }

  test("SparkValidator distinct counts match DuckDB oracle") {
    val d = df(rows, 3)
    Oracle.assertEquivalent(
      d.selectExpr("a0", "a1").distinct(),
      "SELECT DISTINCT a0, a1 FROM t",
      "t" -> d)
  }

  test("Validator.forDataFrame picks driver path under threshold") {
    val d = df(rows, 3)
    assert(Validator.forDataFrame(d, AS.of(0, 1, 2), d.count()).isInstanceOf[DriverValidator])
  }

  test("Validator.forDataFrame picks Spark path over threshold") {
    withThreshold(2) {
      val d = df(rows, 3)
      assert(Validator.forDataFrame(d, AS.of(0, 1, 2), d.count()).isInstanceOf[SparkValidator])
    }
  }

  test("Validator.forDataFrame under threshold reads a given table, not the DataFrame") {
    val t = EncodedTable.fromRows(rows, IndexedSeq(0, 1, 2))
    val v = Validator.forDataFrame(sys.error("the DataFrame was read"), AS.of(0, 2), t.nRows,
      Some(t.project))
    assert(v.isInstanceOf[DriverValidator])
    assert(v.cardinality(AS.of(0, 2)) == 3)
  }

  test("property: Spark and driver validators agree on random tables") {
    val gen = for {
      nCols <- Gen.choose(1, 3)
      nRows <- Gen.choose(1, 8)
      cells <- Gen.listOfN(nRows, Gen.listOfN(nCols, Gen.choose(0, 2)))
    } yield (nCols, cells)
    forAllN(gen, 12) { case (nCols, cells) =>
      val d  = df(cells.map(_.map(_.asInstanceOf[Any])), nCols)
      val sv = new SparkValidator(d, d.count())
      val dv = new DriverValidator(EncodedTable.fromDataFrame(d, IndexedSeq.tabulate(nCols)(identity)))
      AS.allSubsets(AS.universe(nCols)).foreach { s =>
        assert(sv.cardinality(s) == dv.cardinality(s))
      }
    }
  }
}
