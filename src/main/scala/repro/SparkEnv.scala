package repro

import org.apache.spark.sql.SparkSession

/** Shared local SparkSession builder used by tests, benches and jobs. */
object SparkEnv {
  lazy val session: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // By default AQE may not change a cached plan's output partitioning,
      // so a cached sub-view or projection keeps all its shuffle partitions
      // and every distinct count over it runs one task per partition (64
      // tasks for a few hundred rows). Letting AQE coalesce them is safe:
      // nothing here relies on how a cached DataFrame is partitioned.
      .config("spark.sql.optimizer.canChangeCachedPlanOutputPartitioning", true)
      .getOrCreate()
    Console.err.println(
      s"[SparkEnv] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}")
    s
  }
}
