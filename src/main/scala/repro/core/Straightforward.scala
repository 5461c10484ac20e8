package repro.core

import org.apache.spark.sql.DataFrame
import repro.fd._
import repro.views._

/** The "straightforward" comparison pipeline of the paper's experiments:
  * materialize the full SPJ view, run a classical single-table FD miner on
  * the result, and (to match InFine's provenance output) diff the mined FDs
  * against the base-table FDs to recover each FD's lineage.
  */
object Straightforward {

  final case class Result(
      schema: ViewSchema,
      fds: Set[FD],
      triples: Set[ProvenanceTriple],
      viewSeconds: Double,
      mineSeconds: Double,
      diffSeconds: Double,
      viewRows: Long,
  ) {
    def totalSeconds: Double = viewSeconds + mineSeconds + diffSeconds
  }

  def run(spec: ViewSpec, catalog: Map[String, DataFrame],
          miner: Miner, deadline: Deadline = Deadline.never): Result = {
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val eval   = new ViewEval(schema, catalog)

    // 1. Full SPJ view computation (the cost InFine avoids), on the driver:
    // InFine's Step 1 collects each base relation once, and the view is
    // evaluated on those codes. A view with a join the driver cannot pair
    // (an outer join, key columns of different types) is collected from
    // Catalyst instead.
    val aV     = schema.idsOf(spec)
    val t0     = System.nanoTime()
    val driver = DriverEval.collect(eval, spec, aV, deadline)
    val (view, rows) = driver.eval(spec) match {
      case Some(in) => (driver.table(in, aV), in.nRows.toLong)
      case None     => val t = Columns.encode(eval.eval(spec), aV); (t, t.nRows.toLong)
    }
    val tView = (System.nanoTime() - t0) / 1e9

    // 2. Classical FD discovery over the materialized result.
    val t1  = System.nanoTime()
    val fds = miner.mine(view, deadline)
    val tMine = (System.nanoTime() - t1) / 1e9

    // 3. Provenance recovery: compare with the base-table FD sets (mined
    // from Step 1's tables — that cost is excluded on both sides, as in the
    // paper) and with the two sides of the top join.
    val t2 = System.nanoTime()
    val base    = InFine.baseTriples(driver, spec, aV, miner, deadline).values.flatten.toSet
    val sides   = spec.topJoin.map(j => (schema.idsOf(j.left), schema.idsOf(j.right)))
    val triples = Provenance.classify(fds, base, sides, spec)
    val tDiff = (System.nanoTime() - t2) / 1e9

    Result(schema, fds, triples, tView, tMine, tDiff, rows)
  }
}
