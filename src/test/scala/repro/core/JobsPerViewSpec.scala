package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.data.Workloads

/** The paper's saving, counted in Spark jobs: under the collect threshold a
  * view costs one collect per base relation and no join work in Spark.
  */
class JobsPerViewSpec extends SparkSpec {

  /** Spark jobs started while `body` runs. */
  private def jobsOf(body: => Any): Int = {
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

  test("PTC atom ⋈ molecule: at most one Spark job per base relation under the threshold") {
    val spec    = Workloads.byName("atom ⋈ molecule").spec
    val catalog = Workloads.catalog("PTC", spark, 0.02).map { case (k, df) => k -> df.cache() }
    try {
      val bases     = spec.rels.size
      val onDriver  = jobsOf(InFine.run(spec, catalog))
      val inSpark   = withThreshold(0)(jobsOf(InFine.run(spec, catalog)))
      assert(onDriver <= bases, s"$onDriver jobs for $bases base relations")
      assert(inSpark > bases, s"$inSpark jobs at threshold 0 for $bases base relations")
    } finally catalog.values.foreach(_.unpersist())
  }
}
