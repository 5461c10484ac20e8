package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Every generated column is a hash of the row's id,
  * the seed and a per-column salt, so the tables are deterministic in
  * (sf, seed) under any master and partitioning, and the DuckDB oracle sees
  * identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** A value in `0 until k` drawn from `id` by column `salt` of `seed`. */
  private def draw(id: Column, seed: Long, salt: Int, k: Long): Column =
    pmod(xxhash64(id, lit(seed), lit(salt)), lit(k))

  /** One of `values`, drawn from `id` by column `salt` of `seed`. */
  private def pick(id: Column, seed: Long, salt: Int, values: String*): Column =
    element_at(array(values.map(lit): _*), (draw(id, seed, salt, values.size) + 1).cast(IntegerType))

  /** A day in the `days` days from 1992-01-01. */
  private def day(id: Column, seed: Long, salt: Int, days: Int): Column =
    date_add(lit("1992-01-01").cast(DateType), draw(id, seed, salt, days).cast(IntegerType))

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    val id = col("id")
    spark.range(n(NLineitemPerSf, sf)).select(
      draw(id, seed, 0, nOrders) + 1                                as "l_orderkey",
      draw(id, seed, 1, nPart) + 1                                  as "l_partkey",
      (draw(id, seed, 2, 7) + 1).cast(IntegerType)                  as "l_linenumber",
      (draw(id, seed, 3, 50) + 1).cast(DoubleType)                  as "l_quantity",
      round(draw(id, seed, 4, 9000000) / 100.0 + 900, 2)            as "l_extendedprice",
      round(draw(id, seed, 5, 11) / 100.0, 2)                       as "l_discount",
      round(draw(id, seed, 6, 9) / 100.0, 2)                        as "l_tax",
      pick(id, seed, 7, "N", "R", "A")                              as "l_returnflag",
      pick(id, seed, 8, "O", "F")                                   as "l_linestatus",
      day(id, seed, 9, 2557)                                        as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    val nCust = n(NCustomerPerSf, sf)
    val id    = col("o_orderkey")
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      id,
      draw(id, seed, 0, nCust) + 1                                  as "o_custkey",
      pick(id, seed, 1, "O", "F", "P")                              as "o_orderstatus",
      round(draw(id, seed, 2, 50000000) / 100.0 + 1000, 2)          as "o_totalprice",
      day(id, seed, 3, 2406)                                        as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    val id = col("c_custkey")
    spark.range(1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      id,
      draw(id, seed, 0, 25).cast(IntegerType)                       as "c_nationkey",
      round(draw(id, seed, 1, 1000000) / 100.0 - 1000, 2)           as "c_acctbal",
      pick(id, seed, 2, "BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE") as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame = {
    val id = col("p_partkey")
    spark.range(1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      id,
      pick(id, seed, 0, "STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO") as "p_type",
      (draw(id, seed, 1, 50) + 1).cast(IntegerType)                 as "p_size",
      round(lit(900.0) + (id % 1000) / 10.0, 2)                     as "p_retailprice",
    )
  }
}
