package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import org.scalatest.funsuite.AnyFunSuite
import repro.fd.{Columns, FD, Tane}
import repro.views.{ViewEval, ViewSchema, ViewSpec}

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or else half of physical memory clamped to 2–8 GB.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** An all-string table with columns `cols`; each cell is its value's
    * `toString`, and null stays null.
    */
  def df(cols: Seq[String], rows: Seq[Seq[Any]]): DataFrame = {
    val schema = StructType(cols.map(c => StructField(c, StringType)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        rows.map(r => Row(r.map(v => if (v == null) null else v.toString): _*))),
      schema)
  }

  /** Run `body` with the collect threshold `spark.infine.collectThreshold`
    * set to `n`, then restore the previous setting.
    */
  def withThreshold[T](n: Long)(body: => T): T = {
    val key  = "spark.infine.collectThreshold"
    val prev = sys.props.get(key)
    sys.props(key) = n.toString
    try body
    finally prev match {
      case Some(p) => sys.props(key) = p
      case None    => sys.props.remove(key)
    }
  }

  /** Spark jobs started while `body` runs. */
  def jobsOf(body: => Any): Int = {
    val sc   = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try { body; TestListenerBus.drain(sc); jobs.get }
    finally sc.removeSparkListener(listener)
  }

  /** The reference FD set of a view: materialize it, encode its projected
    * attributes and mine them with TANE, independent of InFine and of the
    * straightforward pipeline.
    */
  def directFds(spec: ViewSpec, catalog: Map[String, DataFrame]): Set[FD] = {
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    Tane.mine(Columns.encode(new ViewEval(schema, catalog).eval(spec), schema.idsOf(spec)))
  }
}

object SparkSpec {
  // One builder for tests, benches and jobs — see repro.SparkEnv.
  lazy val shared: SparkSession = SparkEnv.session
}
