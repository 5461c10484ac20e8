package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.BenchListenerBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.SparkEnv
import repro.core.{FDType, InFine, InFineResult, Straightforward}
import repro.fd.{AttrSet => AS, _}
import repro.views.{ViewEval, ViewSchema}

/** Runs one benchmark workload and writes the raw record (setup rounds,
  * passes, and in a traced run the spans, Spark jobs and SQL actions) as
  * JSON. `perfbench/run.py` builds this program, runs it and turns the
  * record into metrics.
  *
  * Usage: Main --workload W --seed N --seconds S --trace 0|1 --out FILE
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val run = new BenchRun(
      BenchWorkloads.byName(opts("workload")),
      seed     = opts("seed").toLong,
      seconds  = opts("seconds").toDouble,
      traced   = opts("trace") == "1")
    // Exit explicitly: a thread Spark leaves behind must not keep the JVM up.
    val code =
      try {
        val record = try run.execute() finally run.stop()
        Files.writeString(Paths.get(opts("out")), Json.render(record))
        0
      } catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}

final class BenchRun(w: BenchWorkload, seed: Long, seconds: Double, traced: Boolean) {
  /** Set-up rounds; their median is the set-up time. */
  private val rounds = 5
  /** Checked passes after set-up that warm the JIT and Spark's code caches:
    * with one, the timed passes still got faster pass after pass.
    */
  private val warmupPasses = 2
  /** Passes a run makes even when they overrun its seconds: enough for a
    * median, and in a traced run two of each kind.
    */
  private val minPasses = if (traced) 4 else 3
  /** Seconds one view may take through one pipeline before it counts as failed. */
  private val budgetS = 60.0
  w.collectThreshold.foreach(t => System.setProperty("spark.infine.collectThreshold", t.toString))

  /** Views in this run's seeded order. */
  private val views = new scala.util.Random(seed).shuffle(w.views)
  private var spark: SparkSession = _
  private var catalogs = Map.empty[String, Map[String, DataFrame]]
  private val meter    = new JvmMeter
  private val spans    = new Spans
  private val recorder = new SparkRecorder

  private var ops = 0
  private var failedOps = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  /** Per view: the FD set every pipeline must return, and InFine's type counts. */
  private val refFds   = mutable.Map.empty[String, Set[FD]]
  private val refTypes = mutable.Map.empty[String, Map[FDType, Int]]
  private val viewRows = mutable.Map.empty[String, Long]

  private def now: Long = System.nanoTime()
  private def secs(t0: Long, t1: Long = System.nanoTime()): Double = (t1 - t0) / 1e9

  def execute(): Map[String, Any] = {
    val setups = (0 until rounds).map(setupRound)
    val warmup = (1 to warmupPasses).map { i =>
      val t0 = now
      timedPass(-i, "warmup")
      secs(t0)
    }
    if (traced) spark.sparkContext.addSparkListener(recorder)
    val passes = mutable.ArrayBuffer.empty[Map[String, Any]]
    val end = now + (seconds * 1e9).toLong
    // A traced run orders its passes untraced, traced, traced, untraced, so
    // that the steady speed-up from pass to pass cancels out of the
    // difference between the two kinds, the tracing overhead.
    while (passes.size < minPasses || now < end)
      passes += (if (traced && Set(1, 2)(passes.size % 4)) tracedPass(passes.size)
                 else timedPass(passes.size, "timed"))
    if (traced) BenchListenerBus.drain(spark.sparkContext)
    Map(
      "workload" -> w.name, "seed" -> seed, "traced" -> traced,
      "env" -> environment,
      "setup" -> setups,
      "warmup_s" -> warmup,
      "setup_rounds" -> rounds, "warmup_passes" -> warmupPasses,
      "base_rows" -> catalogs.values.flatMap(_.values).map(_.count()).sum,
      "view_rows" -> views.map(v => v.id -> viewRows.getOrElse(v.id, -1L)).toMap,
      "passes" -> passes,
      "ops" -> ops, "failed_ops" -> failedOps, "failures" -> failures.take(50),
      "spans" -> (if (traced) spans.records else Nil),
      "jobs" -> (if (traced) recorder.jobRecords else Nil),
      "actions" -> (if (traced) recorder.actionRecords else Nil),
    )
  }

  def stop(): Unit = if (spark != null) spark.stop()

  // ------------------------------------------------------------------ set-up

  /** Session start, then the base tables generated, permuted and cached.
    * Later rounds restart the session first; the checked warm-up passes
    * follow the last round.
    */
  private def setupRound(round: Int): Map[String, Double] = {
    val t0 = now
    spark = if (spark == null) SparkEnv.session else restart(spark)
    val t1 = now
    catalogs = loadCatalogs()
    val t2 = now
    Map("session_s" -> secs(t0, t1), "catalog_s" -> secs(t1, t2), "total_s" -> secs(t0, t2))
  }

  /** A fresh session with the first one's configuration. */
  private def restart(old: SparkSession): SparkSession = {
    val conf = old.sparkContext.getConf.clone()
    Seq("spark.app.id", "spark.app.startTime", "spark.app.submitTime",
        "spark.driver.port", "spark.executor.id").foreach(conf.remove)
    old.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    SparkSession.builder.config(conf).getOrCreate()
  }

  /** The tables the views read, per database, at the workload's scale
    * factor. Each table's generated rows are shuffled by the seed and the
    * result is checkpointed in memory, so the pipelines find it materialized
    * and `clearCache` after an operation leaves it in place.
    */
  private def loadCatalogs(): Map[String, Map[String, DataFrame]] =
    views.groupBy(_.db).map { case (db, vs) =>
      val all = repro.data.Workloads.catalog(db, spark, w.scale(db))
      db -> vs.flatMap(_.spec.rels.map(_.table)).distinct.map { t =>
        val rows = new scala.util.Random(seed).shuffle(all(t).collect().toSeq)
        t -> spark.createDataFrame(rows.asJava, all(t).schema).localCheckpoint(eager = true)
      }.toMap
    }

  // ------------------------------------------------------------- operations

  /** One attempted operation: a view through one pipeline or layer call,
    * under the per-view budget. Anything the operation cached is dropped
    * afterwards, so every operation starts from the same cache state.
    */
  private def op[T](what: String, v: BenchView)(f: Deadline => T): Option[(T, Double)] = {
    ops += 1
    val t0 = now
    val out =
      try Some(f(Deadline.in(budgetS)))
      catch { case NonFatal(e) => fail(s"$what ${v.id}: $e"); None }
    val took = secs(t0)
    spark.catalog.clearCache()
    if (out.isDefined && took > budgetS) { fail(s"$what ${v.id}: over budget, $took s"); None }
    else out.map(_ -> took)
  }

  private def fail(msg: String): Unit = { failedOps += 1; failures += msg }

  private def catalog(v: BenchView) = catalogs(v.db)
  private def inFine(v: BenchView, d: Deadline) = InFine.run(v.spec, catalog(v), Tane, d)
  private def straight(v: BenchView, m: Miner, d: Deadline) =
    Straightforward.run(v.spec, catalog(v), m, d)

  /** The correctness gate for one pass: every pipeline returns the reference
    * FD set (TANE-straightforward's at the first pass, with the expected
    * size), and InFine's per-type counts match its first pass.
    */
  private def check(v: BenchView, inf: Option[InFineResult],
                    tane: Option[Straightforward.Result],
                    hyfd: Option[Straightforward.Result]): Unit = {
    if (!refFds.contains(v.id))
      tane.filter(_.fds.size == v.expectedFds).foreach(r => refFds(v.id) = r.fds)
    refFds.get(v.id) match {
      case None =>
        Seq(inf, tane, hyfd).count(_.isDefined) match {
          case 0 =>
          case n => failedOps += n; failures += s"${v.id}: no reference FD set " +
            s"(TANE-straightforward gave ${tane.map(_.fds.size)}, expected ${v.expectedFds})"
        }
      case Some(ref) =>
        tane.filter(_.fds != ref).foreach(r => fail(s"tane ${v.id}: ${r.fds.size} FDs, expected ${ref.size}"))
        hyfd.filter(_.fds != ref).foreach(r => fail(s"hyfd ${v.id}: ${r.fds.size} FDs, expected ${ref.size}"))
        inf.foreach { r =>
          val types = r.countByType
          refTypes.getOrElseUpdate(v.id, types)
          if (r.fds != ref) fail(s"infine ${v.id}: ${r.fds.size} FDs, expected ${ref.size}")
          else if (types != refTypes(v.id)) fail(s"infine ${v.id}: FD types $types, first pass ${refTypes(v.id)}")
        }
    }
    tane.foreach(r => viewRows(v.id) = r.viewRows)
  }

  // ----------------------------------------------------------------- passes

  /** An untraced pass: each pipeline over all views, one block at a time. */
  private def timedPass(index: Int, kind: String): Map[String, Any] = {
    val t0 = now
    meter.startHeapWindow()
    val inf  = views.map(v => v.id -> op("infine", v)(inFine(v, _))).toMap
    val (heap, heapGcs) = meter.heapPeak()
    val tane = views.map(v => v.id -> op("tane", v)(straight(v, Tane, _))).toMap
    val hyfd = views.map(v => v.id -> op("hyfd", v)(straight(v, HyFD, _))).toMap
    views.foreach(v => check(v, inf(v.id).map(_._1), tane(v.id).map(_._1), hyfd(v.id).map(_._1)))
    def total(m: Map[String, Option[(Any, Double)]]) = m.values.flatten.map(_._2).sum
    Map("index" -> index, "kind" -> kind, "seconds" -> secs(t0),
        "infine_s" -> total(inf), "tane_s" -> total(tane), "hyfd_s" -> total(hyfd),
        "heap_peak_mb" -> heap / 1048576.0, "heap_gcs" -> heapGcs)
  }

  /** A traced pass: per view, the three pipelines and then direct calls into
    * the layers beneath them, each under its own span.
    */
  private def tracedPass(index: Int): Map[String, Any] = {
    val sums = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val fdsByType = mutable.Map.empty[String, Int].withDefaultValue(0)
    var fds = 0
    val t0 = now
    spans("pass") {
      views.foreach { v =>
        spans(s"view:${v.id}") {
          val gc0 = meter.gcMillis; val al0 = meter.allocatedBytes
          val inf = spans("InFine.run")(op("infine", v)(inFine(v, _)))
          sums("jvm.gc_s") += (meter.gcMillis - gc0) / 1e3
          sums("jvm.alloc_mb") += (meter.allocatedBytes - al0) / 1048576.0
          inf.foreach { case (r, s) =>
            sums("infine_s") += s
            Seq("base", "selection", "upstaged", "inferred", "mine")
              .foreach(st => sums(s"stage.$st") += r.stats.seconds(st))
            fds += r.triples.size
            r.countByType.foreach { case (t, n) => fdsByType(t.label) += n }
          }
          val sf = Seq("tane" -> (Tane: Miner), "hyfd" -> (HyFD: Miner)).map { case (name, m) =>
            val res = spans(s"Straightforward.run:$name")(op(name, v)(straight(v, m, _)))
            res.foreach { case (r, s) =>
              sums(s"$name.total_s") += s
              sums(s"$name.view_s") += r.viewSeconds
              sums(s"$name.mine_s") += r.mineSeconds
              sums(s"$name.diff_s") += r.diffSeconds
            }
            res.map(_._1)
          }
          check(v, inf.map(_._1), sf(0), sf(1))
          layerCalls(v, sums)
        }
      }
    }
    Map("index" -> index, "kind" -> "traced", "seconds" -> secs(t0),
        "sums" -> sums.toMap, "fds" -> fds, "fds_by_type" -> fdsByType.toMap)
  }

  /** The layers beneath the straightforward pipeline, called directly:
    * materialize the view, encode it, mine it with TANE and HyFD, and mine
    * each base relation's projection with TANE.
    */
  private def layerCalls(v: BenchView, sums: mutable.Map[String, Double]): Unit = {
    op("layers", v) { d =>
      val cat    = catalog(v)
      val schema = ViewSchema.of(v.spec, t => cat(t).columns.toSeq)
      val eval   = new ViewEval(schema, cat)
      val aV     = schema.idsOf(v.spec)
      def timed[T](key: String, span: String)(f: => T): T = spans(span) {
        val t0 = now
        try f finally sums(key) += secs(t0)
      }
      def select(df: DataFrame, attrs: AS.T) = df.select(AS.toSeq(attrs).map(i => col(s"a$i")): _*)
      val df  = timed("materialize_s", "ViewEval.eval") {
        val m = eval.eval(v.spec).cache(); m.count(); m
      }
      val tbl = timed("encode_s", "EncodedTable.fromDataFrame") {
        EncodedTable.fromDataFrame(select(df, aV), AS.toSeq(aV))
      }
      timed("tane_mine_s", "Tane.mine")(Tane.mine(tbl, d))
      timed("hyfd_mine_s", "HyFD.mine")(HyFD.mine(tbl, d))
      v.spec.rels.foreach { r =>
        val mineable = AS.intersect(schema.attrsOf(r.alias), aV)
        if (!AS.isEmpty(mineable)) {
          val base = EncodedTable.fromDataFrame(select(eval.relDf(r), mineable), AS.toSeq(mineable))
          timed("base_mine_s", "Tane.mine:base")(Tane.mine(base, d))
        }
      }
    }
  }

  // ------------------------------------------------------------ environment

  private def environment: Map[String, Any] = {
    val sc   = spark.sparkContext
    val conf = spark.conf
    Map(
      "java" -> System.getProperty("java.version"),
      "spark" -> spark.version,
      "master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "processors" -> Runtime.getRuntime.availableProcessors,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(","),
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "adaptive" -> conf.get("spark.sql.adaptive.enabled"),
      "collect_threshold" -> Validator.collectThreshold,
      "scale" -> w.scale,
      "view_order" -> views.map(_.id),
      "budget_s" -> budgetS,
    )
  }
}
