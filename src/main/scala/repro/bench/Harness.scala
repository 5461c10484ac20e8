package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data._
import repro.fd._
import repro.views._

/** Shared machinery for the benchmark suites reproducing the paper's
  * Tables I–III and the runtime/memory comparisons of Figures 3–4.
  */
object Harness {

  /** Bench scale factors (overridable via environment). The paper runs
    * MIMIC-III full size and TPC-H SF1; we default to scaled-down instances
    * so the quadratic baseline terminates in a container (documented in
    * EXPERIMENTS.md as a substitution).
    */
  def sfOf(db: String): Double = db match {
    case "MIMIC3" => sys.env.getOrElse("MIMIC_SF", "0.1").toDouble
    case "PTE"    => sys.env.getOrElse("PTE_SF", "1.0").toDouble
    case "PTC"    => sys.env.getOrElse("PTC_SF", "1.0").toDouble
    case "TPC-H"  => sys.env.getOrElse("TPCH_SF", "0.05").toDouble
  }

  /** Per-baseline time budget in seconds (the paper reports FastFDs as
    * ">2,000 s"; we report ">budget s" the same way).
    */
  def budgetSeconds: Double = sys.env.getOrElse("BENCH_BUDGET_S", "120").toDouble

  def spark: SparkSession = repro.SparkEnv.session

  /** Cached catalog per DB at the bench scale factor, with the seconds it
    * took to generate and materialize its cache (the session already up):
    * Table III's "I/O s", the analog of the paper's data-loading time. Each
    * is made once per DB. Before the first one, an untimed load of the same
    * DB at a tiny scale pays the JVM's and Spark's first jobs, so that the
    * first DB is not charged with them.
    */
  private val catalogs = scala.collection.mutable.Map.empty[String, (Map[String, DataFrame], Double)]
  private def loaded(db: String): (Map[String, DataFrame], Double) = synchronized {
    catalogs.getOrElseUpdate(db, {
      if (catalogs.isEmpty) load(db, 0.01).values.foreach(_.unpersist())
      val t0  = System.nanoTime()
      val cat = load(db, sfOf(db))
      (cat, (System.nanoTime() - t0) / 1e9)
    })
  }
  private def load(db: String, sf: Double): Map[String, DataFrame] = {
    val cat = Workloads.catalog(db, spark, sf).map { case (n, df) => n -> df.cache() }
    cat.values.foreach(_.count())
    cat
  }
  def catalog(db: String): Map[String, DataFrame] = loaded(db)._1
  def loadSeconds(db: String): Double = loaded(db)._2

  /** Time the thunk and sample peak JVM heap while it runs. */
  def measure[T](f: => T): (T, Double, Long) = {
    val rt = Runtime.getRuntime
    System.gc()
    @volatile var peak = rt.totalMemory() - rt.freeMemory()
    @volatile var stop = false
    val sampler = new Thread(() => {
      while (!stop) {
        peak = math.max(peak, rt.totalMemory() - rt.freeMemory())
        Thread.sleep(10)
      }
    })
    sampler.setDaemon(true)
    sampler.start()
    val t0  = System.nanoTime()
    val out = try f finally { stop = true; sampler.join(100) }
    ((out, (System.nanoTime() - t0) / 1e9, peak))
  }

  final case class MinerRun(miner: String, seconds: Double, timedOut: Boolean,
                            fds: Int, peakMb: Long)

  private val baselineCache = scala.collection.mutable.Map.empty[(String, String), MinerRun]
  private val inFineCache   = scala.collection.mutable.Map.empty[String, InFineRun]

  /** Run the straightforward pipeline (full view + classical miner) under a
    * time budget. Memoized per (view, miner) so the bench suites sharing a
    * JVM measure each combination once.
    */
  def runBaseline(w: Workload, miner: Miner): MinerRun =
    synchronized(baselineCache.getOrElseUpdate((w.name, miner.name), runBaselineFresh(w, miner)))

  private def runBaselineFresh(w: Workload, miner: Miner): MinerRun = {
    val deadline = Deadline.in(budgetSeconds)
    try {
      val (res, secs, peak) = measure(Straightforward.run(w.spec, catalog(w.db), miner, deadline))
      MinerRun(miner.name, res.viewSeconds + res.mineSeconds, timedOut = false,
        res.fds.size, peak / (1024 * 1024))
    } catch {
      case MinerTimeout(_) =>
        MinerRun(miner.name, budgetSeconds, timedOut = true, -1, -1)
    }
  }

  final case class InFineRun(result: InFineResult, seconds: Double, peakMb: Long,
                             viewRows: Long, coverage: Double)

  /** Run InFine on a workload, with the coverage of its top-most join.
    * Memoized per view.
    */
  def runInFine(w: Workload): InFineRun =
    synchronized(inFineCache.getOrElseUpdate(w.name, runInFineFresh(w)))

  private def runInFineFresh(w: Workload): InFineRun = {
    val cat = catalog(w.db)
    // Only the discovery pipeline is timed; the view's row count and the
    // coverage metric are reporting overhead InFine never needs, counted on
    // the driver from a second Step-1 collect. Base-table mining time is
    // subtracted afterwards: the paper excludes it on both sides ("these
    // costs are the same"), and the baseline column already excludes it.
    // Step 1's collect stays in, as the baseline's view time includes it.
    val (res, rawSecs, peak) = measure(InFine.run(w.spec, cat))
    val secs   = math.max(0.0, rawSecs - res.stats.seconds("base"))
    val driver = DriverEval.collect(new ViewEval(res.schema, cat), w.spec, res.schema.idsOf(w.spec))
    def rowsOf(spec: ViewSpec): DriverRows = driver.eval(spec).getOrElse(
      throw new IllegalStateException(s"${w.name}: the driver cannot evaluate ${spec.render}"))
    val rows = rowsOf(w.spec).nRows.toLong
    // rowsOf(w.spec) evaluated the top join, so the driver pairs it.
    val cov  = w.spec.topJoin.fold(1.0)(j => driver.join(rowsOf(j.left), rowsOf(j.right), j).get.coverage)
    InFineRun(res, secs, peak / (1024 * 1024), rows, cov)
  }

  /** Stage shares as in the paper's Table III / Figure 5 pies: base FDs are
    * credited to the upstage stage ("InFine applied only to the base
    * tables"), selections are folded into upstageFDs as in the paper.
    */
  def accuracyShares(res: InFineResult): (Double, Double, Double) = {
    val n = math.max(1, res.triples.size)
    val byType = res.countByType
    val up = byType(FDType.Base) + byType(FDType.UpstagedSelection) +
      byType(FDType.UpstagedLeft) + byType(FDType.UpstagedRight)
    (up.toDouble / n, byType(FDType.Inferred).toDouble / n, byType(FDType.JoinFD).toDouble / n)
  }

  /** Mine the FDs of one base table (for Table I). */
  def baseTableFds(db: String, table: String): (Int, Long, Int) = {
    val df      = catalog(db)(table)
    val encoded = EncodedTable.fromDataFrame(df, df.columns.indices)
    (encoded.width, encoded.nRows.toLong, Tane.mine(encoded).size)
  }
}
