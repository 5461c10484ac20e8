package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  test("lineitem scales with sf") {
    assert(SynthData.lineitem(spark, 0.001).count() == 6000)
  }

  test("orders keys are sequential and unique") {
    val o = SynthData.orders(spark, 0.001)
    assert(o.count() == 1500)
    assert(o.select("o_orderkey").distinct().count() == 1500)
  }

  test("customer and part are keyed") {
    assert(SynthData.customer(spark, 0.001).select("c_custkey").distinct().count() == 150)
    assert(SynthData.part(spark, 0.001).select("p_partkey").distinct().count() == 200)
  }

  test("lineitem foreign keys stay in range") {
    val li = SynthData.lineitem(spark, 0.001)
    val bad = li.filter(col("l_orderkey") < 1 || col("l_orderkey") > 1500 ||
                        col("l_partkey") < 1 || col("l_partkey") > 200).count()
    assert(bad == 0)
  }

  test("every table is the same whatever the number of partitions that generate it") {
    // spark.range splits its rows over this many partitions by default.
    val key = "spark.sql.leafNodeDefaultParallelism"
    def rows(parts: Int) = {
      spark.conf.set(key, parts.toLong)
      try Seq(SynthData.lineitem(spark, 0.001), SynthData.orders(spark, 0.001),
              SynthData.customer(spark, 0.001), SynthData.part(spark, 0.001))
            .map(_.collect().map(_.toString).sorted.toSeq)
      finally spark.conf.unset(key)
    }
    assert(rows(1) == rows(3))
  }
}
