package repro.core

import repro.SparkSpec
import repro.data.Workloads

/** The reproduction's central invariant (paper Theorems 5–6): on every one
  * of the 16 experimental SPJ views, InFine's provenance-annotated FD set is
  * exactly the set of minimal FDs a direct miner reports on the materialized
  * view — at unit-test scale factors.
  */
class WorkloadCompletenessSpec extends SparkSpec {

  private val sfOf = Map("MIMIC3" -> 0.002, "PTE" -> 0.02, "PTC" -> 0.02, "TPC-H" -> 0.001)

  Workloads.all.foreach { w =>
    test(s"${w.db}: ${w.name} — InFine == direct mining on the view") {
      val catalog = Workloads.catalog(w.db, spark, sfOf(w.db))
        .map { case (k, df) => k -> df.cache() }
      val res    = InFine.run(w.spec, catalog)
      val direct = directFds(w.spec, catalog)
      assert(res.fds == direct,
        s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
        s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
      // sanity: provenance covers every FD exactly once
      assert(res.triples.toSeq.map(_.fd).distinct.size == res.triples.size)
      catalog.values.foreach(_.unpersist())
    }
  }
}
