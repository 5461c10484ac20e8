package perfbench

import repro.views.ViewSpec

/** One view of a benchmark workload: an ASCII id, the paper view it runs and
  * the number of minimal FDs every pipeline must return on it at the
  * workload's scale factors.
  */
final case class BenchView(id: String, db: String, paperName: String, expectedFds: Int) {
  lazy val spec: ViewSpec = repro.data.Workloads.byName(paperName).spec
}

/** A benchmark workload: views, one scale factor per database, and the
  * collect threshold it pins (None keeps the program's default).
  */
final case class BenchWorkload(
    name: String,
    scale: Map[String, Double],
    views: Seq[BenchView],
    collectThreshold: Option[Long],
)

object BenchWorkloads {
  // The paper's view names use the join sign; ids stay ASCII so they survive
  // command lines and JSON unchanged.
  private val J = "⋈"

  val all: Seq[BenchWorkload] = Seq(
    BenchWorkload("chem-joins", Map("PTC" -> 1.0), Seq(
      BenchView("atom-molecule", "PTC", s"atom $J molecule", 8),
    ), None),
    BenchWorkload("spark-validator", Map("PTE" -> 1.0), Seq(
      BenchView("active-drug", "PTE", s"active $J drug", 4),
    ), Some(0L)),
    // A tiny workload for the benchmark's own smoke test.
    BenchWorkload("smoke", Map("PTC" -> 0.01), Seq(
      BenchView("atom-molecule", "PTC", s"atom $J molecule", 8),
    ), None),
  )

  def byName(name: String): BenchWorkload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload $name"))
}
