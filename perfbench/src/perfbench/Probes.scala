package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.scheduler._
import org.apache.spark.sql.BenchSqlEvents
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

/** Spans of the traced run, kept in memory and written out when it ends.
  * Times are driver `System.nanoTime`; `epochOffsetNanos` maps them onto the
  * wall clock that Spark's listener events carry.
  */
final class Spans {
  final case class Span(id: Int, parent: Int, name: String, start: Long, var end: Long = -1L)

  val epochOffsetNanos: Long = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Span]

  def apply[T](name: String)(f: => T): T = {
    val s = Span(spans.size, open.headOption.map(_.id).getOrElse(-1), name, System.nanoTime())
    spans += s
    open = s :: open
    try f finally {
      s.end = System.nanoTime()
      open = open.tail
    }
  }

  def records: Seq[Map[String, Any]] = spans.toSeq.map(s => Map(
    "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
    "start_ms" -> (s.start + epochOffsetNanos) / 1e6,
    "end_ms" -> (s.end + epochOffsetNanos) / 1e6))
}

/** Spark jobs, tasks and SQL actions, recorded from listener events. Jobs
  * and actions carry the wall-clock times of the events themselves, so the
  * asynchronous listener bus does not skew where they are placed. An action
  * is named by its SQL execution's end event and placed at its start.
  */
final class SparkRecorder extends SparkListener {
  final class Job(val id: Int, val start: Long, val execution: Long) {
    var end = -1L; var tasks = 0; var shuffleWrite = 0L; var resultBytes = 0L
  }
  private val jobs        = mutable.LinkedHashMap.empty[Int, Job]
  private val stageToJob  = mutable.Map.empty[Int, Int]
  private val execStart   = mutable.Map.empty[Long, Long]
  private val actions     = mutable.ArrayBuffer.empty[Map[String, Any]]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .map(_.toLong).getOrElse(-1L)
    jobs(e.jobId) = new Job(e.jobId, e.time, exec)
    e.stageIds.foreach(s => stageToJob(s) = e.jobId)
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageToJob.get(e.stageId).flatMap(jobs.get)) {
      j.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        j.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        j.resultBytes  += m.resultSize
      }
    }
  }
  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart => execStart(s.executionId) = s.time
      case s: SparkListenerSQLExecutionEnd =>
        for (name <- BenchSqlEvents.actionName(s); start <- execStart.get(s.executionId))
          actions += Map("execution" -> s.executionId, "name" -> name, "start_ms" -> start)
      case _ =>
    }
  }

  def jobRecords: Seq[Map[String, Any]] = synchronized(jobs.values.toSeq.map(j => Map(
    "id" -> j.id, "start_ms" -> j.start, "end_ms" -> j.end, "execution" -> j.execution,
    "tasks" -> j.tasks, "shuffle_write_bytes" -> j.shuffleWrite,
    "result_bytes" -> j.resultBytes)))

  def actionRecords: Seq[Map[String, Any]] = synchronized(actions.toSeq)
}

/** Driver-JVM meters: the heap in use after the collections of a window,
  * collection time, and the driver thread's allocated bytes.
  */
final class JvmMeter {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val runtime = ManagementFactory.getRuntimeMXBean
  private var peak = 0L
  private var windowStart = 0L
  private var countAtStart = 0L
  private var seen = 0L

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val gc = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        val after = gc.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        JvmMeter.this.synchronized {
          // Notifications arrive late: skip collections from before the window.
          if (gc.getStartTime >= windowStart) { peak = math.max(peak, after); seen += 1 }
          JvmMeter.this.notifyAll()
        }
      }
  }
  gcBeans.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(listener, null, null))

  private def collections: Long = gcBeans.map(b => math.max(0L, b.getCollectionCount)).sum

  /** Start a heap window with a full collection, so that it starts from the
    * live heap alone.
    */
  def startHeapWindow(): Unit = {
    System.gc()
    synchronized {
      windowStart = runtime.getUptime
      countAtStart = collections
      seen = 0
      peak = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }
  }

  /** The most heap in use after any collection since `startHeapWindow`, and
    * how many collections that covers. Waits for the notifications of the
    * collections the window has finished, which arrive on another thread.
    */
  def heapPeak(): (Long, Long) = {
    val due = collections - countAtStart
    val giveUp = System.nanoTime() + 2000000000L
    synchronized {
      while (seen < due && System.nanoTime() < giveUp) wait(50)
      (peak, seen)
    }
  }

  def gcMillis: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum
  def allocatedBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread.getId)
}
