package repro.fd

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import repro.SparkSpec
import repro.fd.{AttrSet => AS}
import repro.views.{AttrRef, Join, JoinKind, Rel, ViewEval, ViewSchema}

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

  /** `collect(df)`'s rows are those `executeCollect` returns for `df`'s
    * plan, value by value (binary by content) and in the same order.
    */
  private def assertCollectsAsSpark(df: DataFrame): Unit = {
    import org.apache.spark.sql.catalyst.InternalRow
    val schema = df.schema
    def values(rows: Array[InternalRow]) =
      rows.toSeq.map(_.toSeq(schema).map { case b: Array[Byte] => b.toSeq; case v => v })
    val expected = values(df.queryExecution.executedPlan.executeCollect())
    val got      = EncodedTable.collect(df)
    assert(got.schema == schema)
    assert(values(got.rows) == expected)
  }

  test("collect returns executeCollect's rows: empty frames") {
    import org.apache.spark.sql.Row
    val noPartitions = spark.createDataFrame(spark.sparkContext.emptyRDD[Row], df(Seq("a"), Nil).schema)
    assert(noPartitions.rdd.getNumPartitions == 0)
    Seq(noPartitions, spark.range(0, 10, 1, 3).toDF().filter("id < 0"), spark.emptyDataFrame).foreach { e =>
      assertCollectsAsSpark(e)
      assert(EncodedTable.collect(e).nRows == 0)
    }
  }

  test("collect returns executeCollect's rows: 3 rows over 8 partitions") {
    val spread = df(Seq("a", "b"), Seq(Seq("1", "x"), Seq(null, "y"), Seq("3", null))).repartition(8)
    assert(spread.rdd.getNumPartitions == 8)
    assertCollectsAsSpark(spread)
    assert(EncodedTable.collect(spread).nRows == 3)
  }

  test("collect returns executeCollect's rows: every generated column type, nulls, 4 partitions") {
    val types = spark.range(0, 200, 1, 4).selectExpr(
      "IF(id % 9 = 0, NULL, concat('v', id % 5)) AS s",
      "IF(id % 9 = 1, NULL, CAST(id % 2 AS INT)) AS i",
      "IF(id % 9 = 2, NULL, id % 4) AS l",
      "IF(id % 9 = 3, NULL, (id % 3) / 4.0D) AS d",
      "IF(id % 9 = 4, NULL, CAST(id % 3 AS DECIMAL(12, 2)) / 100) AS m",
      "IF(id % 9 = 5, NULL, CAST(id AS DECIMAL(38, 10)) * 1000000000) AS big",
      "IF(id % 9 = 6, NULL, date_add(DATE'2020-01-01', CAST(id % 3 AS INT))) AS t",
      "IF(id % 9 = 7, NULL, timestamp_seconds(id % 4)) AS ts",
      "IF(id % 9 = 8, NULL, id % 2 = 0) AS b",
      "IF(id % 9 = 0, NULL, CAST(concat('bin', id % 3) AS BINARY)) AS bin")
    assert(types.rdd.getNumPartitions == 4)
    assertCollectsAsSpark(types)
    val got = EncodedTable.collect(types)
    assert(got.nRows == 200)
    assert(types.columns.indices.forall(c => got.rows.exists(_.isNullAt(c))), "every column has a null")
  }

  test("collect returns executeCollect's rows: a left outer join with an exchange under AQE") {
    val catalog = Map(
      "l" -> df(Seq("k", "v"), Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "x"), Seq(null, "z"))),
      "r" -> df(Seq("k2", "w"), Seq(Seq("1", "p"), Seq("1", "q"), Seq("3", "q"), Seq("4", "p"))))
    val j      = Join(Rel("l"), Rel("r"), Seq(AttrRef("l", "k") -> AttrRef("r", "k2")), JoinKind.LeftOuter)
    val schema = ViewSchema.of(j, t => catalog(t).columns.toSeq)
    val joined = new ViewEval(schema, catalog).eval(j)
    assert(joined.queryExecution.executedPlan.isInstanceOf[AdaptiveSparkPlanExec])
    assertCollectsAsSpark(joined)
    assert(EncodedTable.collect(joined).nRows == 5)
  }

  test("collect of a local relation returns executeCollect's rows and runs no Spark job") {
    val local = spark.createDataFrame(Seq((1, "a"), (2, null), (3, "c"))).toDF("n", "s")
    assert(local.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec])
    assertCollectsAsSpark(local)
    assert(jobsOf(EncodedTable.collect(local)) == 0)
  }

  /** `collect(df, exprs)`, with `exprs` the expressions of `columns` over
    * `df`, returns the rows `df.select(columns)` gives through
    * `executeCollect`, value by value and in order, on every collect.
    */
  private def assertCollectsAsSelect(df: DataFrame, columns: Seq[Column]): Unit = {
    import org.apache.spark.sql.catalyst.InternalRow
    val selected = df.select(columns: _*)
    val schema   = selected.schema
    def values(rows: Array[InternalRow]) = rows.toSeq.map(_.toSeq(schema))
    val expected = values(selected.queryExecution.executedPlan.executeCollect())
    assert(expected.exists(_.contains(null)), "the rows hold a null")
    (1 to 2).foreach { pass =>
      val got = EncodedTable.collect(df, EncodedTable.expressions(df, columns))
      assert(got.schema == schema, s"collect #$pass")
      assert(values(got.rows) == expected, s"collect #$pass")
    }
  }

  // (k, v, w) with nulls; read back as (w, k, v = 'x').
  private val kvw = Seq(Seq("1", "x", "p"), Seq("2", null, "q"), Seq(null, "x", null), Seq("4", "y", "p"))
  private val reordered = Seq(col("w"), col("k"), (col("v") === "x").as("atom"))

  test("collect(df, exprs) returns Catalyst's projection: a frame over an RDD") {
    val rdd = df(Seq("k", "v", "w"), kvw).repartition(3)
    assert(!rdd.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec])
    assertCollectsAsSelect(rdd, reordered)
  }

  test("collect(df, exprs) returns Catalyst's projection: a local relation, with no Spark job") {
    val local = spark.createDataFrame(kvw.map { case Seq(k, v, w) => (k.asInstanceOf[String],
      v.asInstanceOf[String], w.asInstanceOf[String]) }).toDF("k", "v", "w")
    assert(local.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec])
    assert(jobsOf(assertCollectsAsSelect(local, reordered)) == 0)
  }

  test("collect(df, exprs) returns Catalyst's projection: a left outer join under AQE") {
    val catalog = Map(
      "l" -> df(Seq("k", "v"), Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "x"), Seq(null, "z"))),
      "r" -> df(Seq("k2", "w"), Seq(Seq("1", "p"), Seq("1", "q"), Seq("3", "q"), Seq("4", "p"))))
    val j      = Join(Rel("l"), Rel("r"), Seq(AttrRef("l", "k") -> AttrRef("r", "k2")), JoinKind.LeftOuter)
    val schema = ViewSchema.of(j, t => catalog(t).columns.toSeq)
    val joined = new ViewEval(schema, catalog).eval(j)
    assert(joined.queryExecution.executedPlan.isInstanceOf[AdaptiveSparkPlanExec])
    // a3 is r.w, null on the unmatched rows; a0 is l.k.
    assertCollectsAsSelect(joined, Seq(col("a3"), col("a0"), (col("a1") === "x").as("atom")))
  }

  test("a cached DataFrame collected again after clearCache or unpersist caches nothing again") {
    val sc     = spark.sparkContext
    def cached = spark.range(0, 100, 1, 2).selectExpr("id % 7 AS k").cache()
    spark.catalog.clearCache()
    val before = sc.getPersistentRDDs.keySet
    def assertNothingCached(): Unit = {
      assert(sc.getPersistentRDDs.keySet == before)
      assert(spark.sharedState.cacheManager.isEmpty)
    }
    val cleared = cached
    assert(EncodedTable.collect(cleared).nRows == 100)
    assert(sc.getPersistentRDDs.keySet != before, "the first collect fills the cache")
    spark.catalog.clearCache()
    assert(EncodedTable.collect(cleared).nRows == 100)
    assertNothingCached()
    val unpersisted = cached
    assert(EncodedTable.collect(unpersisted).nRows == 100)
    unpersisted.unpersist()
    assert(EncodedTable.collect(unpersisted).nRows == 100)
    assertNothingCached()
  }

  test("a row that is not an UnsafeRow is packed as one") {
    import org.apache.spark.sql.catalyst.InternalRow
    import org.apache.spark.sql.catalyst.expressions.BoundReference
    import org.apache.spark.sql.types._
    import org.apache.spark.unsafe.types.UTF8String
    val schema = StructType(Seq(StructField("s", StringType), StructField("n", LongType)))
    val rows   = Seq(InternalRow(UTF8String.fromString("a"), 1L), InternalRow(null, 2L),
      InternalRow(UTF8String.fromString("c"), null))
    val cols   = schema.fields.toSeq.zipWithIndex.map { case (f, i) => BoundReference(i, f.dataType, f.nullable) }
    val got    = EncodedTable.Pack.collect(spark.sparkContext.parallelize(rows, 2), cols)
    assert(got.toSeq.map(_.toSeq(schema)) == rows.map(_.toSeq(schema)))
  }

  test("a partition larger than one array fails loudly before any allocation") {
    val buf = new Array[Byte](16)
    assert(EncodedTable.Pack.reserve(buf, 16, 0) eq buf)
    assert(EncodedTable.Pack.reserve(buf, 17, 0).length == 32)
    assert(EncodedTable.Pack.reserve(buf, 100, 0).length == 100)
    val needed = EncodedTable.Pack.MaxBytes.toLong + 1
    val e = intercept[IllegalStateException](EncodedTable.Pack.reserve(buf, needed, 7))
    Seq("partition 7", needed.toString, "spark.driver.maxResultSize").foreach { s =>
      assert(e.getMessage.contains(s), e.getMessage)
    }
  }
}
