package repro.bench

import repro.core.FDType
import repro.data.Workloads
import repro.fd.{Tane, Fun, FastFDs, HyFD, Miner}

/** Formatters that regenerate the paper's tables from the bench harness.
  * Each `tableX()` returns the rows it printed so bench suites can assert
  * on them; jobs print them for spark-submit runs.
  */
object Tables {

  private def fmt(d: Double): String = f"$d%.4f"

  // ------------------------------------------------------------- Table I
  final case class TableIRow(db: String, table: String, atts: Int, tuples: Long,
                             fds: Int)

  def tableI(): Seq[TableIRow] = {
    println("== Table I: data characteristics (synthetic stand-ins at bench SF) ==")
    println(f"${"DB"}%-8s ${"Table"}%-18s ${"(Att#; Tuple#)"}%-20s FD#")
    val rows = for {
      (db, tables) <- Workloads.tablesByDb
      t            <- tables
    } yield {
      val (atts, n, fds) = Harness.baseTableFds(db, t)
      val row = TableIRow(db, t, atts, n, fds)
      println(f"$db%-8s $t%-18s ${s"($atts; $n)"}%-20s $fds")
      row
    }
    rows
  }

  // ------------------------------------------------------------ Table II
  final case class TableIIRow(db: String, view: String, tuples: Long, fds: Int,
                              paperTuples: Long, paperFds: Int)

  def tableII(): Seq[TableIIRow] = {
    println("== Table II: SPJ views — measured vs paper ==")
    println(f"${"DB"}%-8s ${"SPJ View"}%-45s ${"Tuple#"}%-10s ${"FD#"}%-6s ${"paper Tuple#"}%-13s paper FD#")
    Workloads.all.map { w =>
      val run = Harness.runInFine(w)
      val row = TableIIRow(w.db, w.name, run.viewRows, run.result.triples.size,
        w.paper.tuples, w.paper.fds)
      println(f"${w.db}%-8s ${w.name}%-45s ${run.viewRows}%-10s ${row.fds}%-6s ${w.paper.tuples}%-13s ${w.paper.fds}")
      row
    }
  }

  // ----------------------------------------------------------- Table III
  final case class TableIIIRow(db: String, view: String, atts: Int, tuples: Long,
                               coverage: Double, accUp: Double, accInf: Double,
                               accMine: Double, totalFds: Int, ioS: Double,
                               upstageS: Double, mineS: Double)

  def tableIII(): Seq[TableIIIRow] = {
    println("== Table III: accuracy and time breakdowns of InFine (paper values in parens) ==")
    println(f"${"DB"}%-8s ${"SPJ View"}%-45s ${"(Att#;Tuple#)"}%-16s ${"Cov."}%-9s " +
      f"${"UpAcc"}%-14s ${"InfAcc"}%-14s ${"MineAcc"}%-14s ${"FD#"}%-10s ${"I/O(s)"}%-16s ${"upstage(s)"}%-16s mine(s)")
    Workloads.all.map { w =>
      val run = Harness.runInFine(w)
      val (up, inf, mine) = Harness.accuracyShares(run.result)
      val atts = repro.fd.AttrSet.size(run.result.schema.idsOf(w.spec))
      val upS  = run.result.stats.seconds("upstaged") + run.result.stats.seconds("selection")
      val mnS  = run.result.stats.seconds("mine")
      val ioS  = Harness.loadSeconds(w.db)
      val p    = w.paper
      val row = TableIIIRow(w.db, w.name, atts, run.viewRows, run.coverage,
        up, inf, mine, run.result.triples.size, ioS, upS, mnS)
      println(f"${w.db}%-8s ${w.name}%-45s ${s"($atts;${run.viewRows})"}%-16s ${fmt(run.coverage)}%-9s " +
        f"${s"${fmt(up)}(${p.accUp})"}%-14s ${s"${fmt(inf)}(${p.accInf})"}%-14s ${s"${fmt(mine)}(${p.accMine})"}%-14s " +
        f"${s"${row.totalFds}(${p.fds})"}%-10s ${s"${fmt(ioS)}(${p.ioS})"}%-16s " +
        f"${s"${fmt(upS)}(${p.upstageS})"}%-16s ${fmt(mnS)}(${p.mineS})")
      row
    }
  }

  // --------------------------------------------- Fig. 3 (runtime, as table)
  final case class RuntimeRow(db: String, view: String, inFineS: Double,
                              baselines: Map[String, (Double, Boolean)])

  val baselineMiners: Seq[Miner] = Seq(HyFD, Tane, Fun, FastFDs)

  def runtimeTable(miners: Seq[Miner] = baselineMiners): Seq[RuntimeRow] = {
    println("== Fig. 3 (as table): avg runtime (s) — InFine vs straightforward baselines ==")
    println(f"${"DB"}%-8s ${"SPJ View"}%-45s ${"InFine"}%-10s " +
      miners.map(m => f"${m.name}%-12s").mkString)
    Workloads.all.map { w =>
      val inf = Harness.runInFine(w)
      val bs = miners.map { m =>
        val r = Harness.runBaseline(w, m)
        m.name -> ((r.seconds, r.timedOut))
      }.toMap
      val row = RuntimeRow(w.db, w.name, inf.seconds, bs)
      val cells = miners.map { m =>
        val (s, to) = bs(m.name)
        val txt = if (to) s">${s.toInt}" else fmt(s)
        f"$txt%-12s"
      }.mkString
      println(f"${w.db}%-8s ${w.name}%-45s ${fmt(inf.seconds)}%-10s $cells")
      row
    }
  }

  // ---------------------------------------------- Fig. 4 (memory, as table)
  final case class MemoryRow(db: String, view: String, inFineMb: Long,
                             baselines: Map[String, Long])

  def memoryTable(miners: Seq[Miner] = baselineMiners): Seq[MemoryRow] = {
    println("== Fig. 4 (as table): max heap (MB) — InFine vs straightforward baselines ==")
    println(f"${"DB"}%-8s ${"SPJ View"}%-45s ${"InFine"}%-10s " +
      miners.map(m => f"${m.name}%-12s").mkString)
    Workloads.all.map { w =>
      val inf = Harness.runInFine(w)
      val bs  = miners.map { m => m.name -> Harness.runBaseline(w, m).peakMb }.toMap
      val row = MemoryRow(w.db, w.name, inf.peakMb, bs)
      println(f"${w.db}%-8s ${w.name}%-45s ${inf.peakMb}%-10s " +
        miners.map(m => f"${bs(m.name)}%-12s").mkString)
      row
    }
  }

  /** Figure 5-style provenance breakdown, printed per view. */
  def provenanceBreakdown(): Unit = {
    println("== Provenance type counts per view ==")
    Workloads.all.foreach { w =>
      val run = Harness.runInFine(w)
      val c   = run.result.countByType
      println(f"${w.db}%-8s ${w.name}%-45s " +
        FDType.all.map(t => s"${t.label}=${c(t)}").mkString(" "))
    }
  }
}
