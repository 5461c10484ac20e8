package repro.core

import scala.collection.mutable
import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent}
import org.apache.spark.sql.{DataFrame, TestSqlEvents}
import org.apache.spark.sql.catalyst.plans.LeftSemi
import org.apache.spark.sql.catalyst.plans.logical.{Deduplicate, Join, LogicalPlan}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd
import org.apache.spark.sql.util.QueryExecutionListener
import repro.SparkSpec
import repro.data.Workloads
import repro.fd.Tane

/** The paper's saving, counted in Spark work. Step 1 collects each base
  * relation once, and every size InFine needs of a sub-view over them
  * (selections, semijoins, inner joins, also above a join) comes from those
  * codes, at any collect threshold. So under the threshold a view costs one
  * Spark job per base relation, and above it Spark runs only the FD checks:
  * a distinct count is issued only for a check that neither a known
  * cardinality nor a side's FDs decide. A join's key sets are counted on
  * the driver, and a superset of a key is a key, so neither is counted in
  * Spark; a check over one side of an inner join, also once its join keys
  * are folded into their twins, is answered from that side's FDs (Lemma 2).
  * The straightforward pipeline builds its
  * view from the same collects, so it too costs one Spark job per base
  * relation, at any threshold. Step 1 reads Spark's rows without
  * `Dataset.collect`, yet each of its collects is still one SQL action named
  * `collect` that listeners see: one per catalog table, over that
  * DataFrame's own query execution.
  */
class JobsPerViewSpec extends SparkSpec {

  /** The analyzed plans of the `count` actions run while `body` runs. */
  private def countsOf(body: => Any): Seq[LogicalPlan] = {
    val sc    = spark.sparkContext
    val plans = mutable.ArrayBuffer.empty[LogicalPlan]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        if (funcName == "count") plans.synchronized(plans += qe.analyzed)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    TestListenerBus.drain(sc)
    spark.listenerManager.register(listener)
    try { body; TestListenerBus.drain(sc); plans.synchronized(plans.toList) }
    finally spark.listenerManager.unregister(listener)
  }

  /** The SQL executions that end while `body` runs. */
  private def sqlExecutionsOf(body: => Any): Seq[SparkListenerSQLExecutionEnd] = {
    val sc   = spark.sparkContext
    val ends = mutable.ArrayBuffer.empty[SparkListenerSQLExecutionEnd]
    val listener = new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case end: SparkListenerSQLExecutionEnd => ends.synchronized(ends += end)
        case _ =>
      }
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try { body; TestListenerBus.drain(sc); ends.synchronized(ends.toList) }
    finally sc.removeSparkListener(listener)
  }

  /** The action names of the SQL executions that end while `body` runs. */
  private def sqlActionsOf(body: => Any): Seq[Option[String]] =
    sqlExecutionsOf(body).map(TestSqlEvents.actionName)

  private def withPtcCatalog[T](body: Map[String, DataFrame] => T): T = {
    val catalog = Workloads.catalog("PTC", spark, 0.02).map { case (k, df) => k -> df.cache() }
    try body(catalog) finally catalog.values.foreach(_.unpersist())
  }

  private val atomMolecule = Workloads.byName("atom ⋈ molecule").spec

  test("PTC atom ⋈ molecule: at most one Spark job per base relation under the threshold") {
    withPtcCatalog { catalog =>
      val bases     = atomMolecule.rels.size
      var actions   = Seq.empty[Option[String]]
      val onDriver  = jobsOf { actions = sqlActionsOf(InFine.run(atomMolecule, catalog)) }
      val inSpark   = withThreshold(0)(jobsOf(InFine.run(atomMolecule, catalog)))
      assert(onDriver <= bases, s"$onDriver jobs for $bases base relations")
      assert(actions == Seq.fill(bases)(Some("collect")), actions)
      assert(inSpark > bases, s"$inSpark jobs at threshold 0 for $bases base relations")
    }
  }

  test("PTC atom ⋈ molecule: a second run collects through each catalog DataFrame's own plan") {
    // Spark plans a Dataset once, so a run that reads the catalog
    // DataFrame's own query execution neither analyzes nor plans it again.
    withPtcCatalog { catalog =>
      InFine.run(atomMolecule, catalog)
      val ran = sqlExecutionsOf(InFine.run(atomMolecule, catalog)).map(TestSqlEvents.queryExecution)
      val own = atomMolecule.rels.map(r => catalog(r.table).queryExecution)
      assert(ran.size == own.size, ran)
      assert(own.forall(qe => ran.exists(_ eq qe)), ran)
    }
  }

  test("PTE [atm ⋈ bond ⋈ atm] ⋈ drug: one Step 1 collect per distinct table") {
    // atm1 and atm2 are two instances of atm: they share its collect.
    val spec    = Workloads.byName("[atm ⋈ bond ⋈ atm] ⋈ drug").spec
    val tables  = spec.rels.map(_.table).distinct
    val catalog = Workloads.catalog("PTE", spark, 0.02).map { case (k, df) => k -> df.cache() }
    try {
      assert(tables.size == spec.rels.size - 1, tables)
      val actions = sqlActionsOf(InFine.run(spec, catalog))
      assert(actions == Seq.fill(tables.size)(Some("collect")), actions)
    } finally catalog.values.foreach(_.unpersist())
  }

  // The second view joins a join: its rows, and so its size, are on the
  // driver too, at any threshold.
  Seq("atom ⋈ molecule", "[connected ⋈ bond] ⋈ molecule").foreach { name =>
    test(s"PTC $name at threshold 0: every Spark count is a validator's distinct count") {
      withPtcCatalog { catalog =>
        val counts = withThreshold(0)(countsOf(InFine.run(Workloads.byName(name).spec, catalog)))
        assert(counts.nonEmpty, "at threshold 0 the join's candidates are checked in Spark")
        counts.foreach { plan =>
          assert(!plan.exists {
            case j: Join => j.joinType == LeftSemi
            case _       => false
          }, s"a semijoin counted in Spark, its size is known on the driver:\n$plan")
          assert(plan.exists(_.isInstanceOf[Deduplicate]),
            s"an instance counted in Spark, its size is known on the driver:\n$plan")
        }
      }
    }
  }

  test("PTE active ⋈ drug at threshold 0: no Spark count") {
    // The join's key sets are counted on the driver. Its other checks are
    // over one side: refine's ∅ → activity, and join-FD mining's
    // activity → drug.drug_id, which is activity → active.drug_id since the
    // twin keys are equal on every row. The left side's FDs decide both.
    val spec    = Workloads.byName("active ⋈ drug").spec
    val catalog = Workloads.catalog("PTE", spark, 1.0)
    var counts  = Seq.empty[LogicalPlan]
    var actions = Seq.empty[Option[String]]
    val jobs    = withThreshold(0)(jobsOf { actions = sqlActionsOf { counts = countsOf(InFine.run(spec, catalog)) } })
    assert(counts.isEmpty, counts.mkString("\n"))
    assert(jobs == spec.rels.size, s"$jobs Spark jobs for ${spec.rels.size} base relations")
    assert(actions == Seq.fill(spec.rels.size)(Some("collect")), actions)
  }

  test("PTC atom ⋈ molecule: Straightforward starts at most one Spark job per base relation") {
    withPtcCatalog { catalog =>
      val bases  = atomMolecule.rels.size
      val atDflt = jobsOf(Straightforward.run(atomMolecule, catalog, Tane))
      val atZero = withThreshold(0)(jobsOf(Straightforward.run(atomMolecule, catalog, Tane)))
      assert(atDflt <= bases, s"$atDflt jobs for $bases base relations")
      assert(atZero <= bases, s"$atZero jobs at threshold 0 for $bases base relations")
    }
  }
}
