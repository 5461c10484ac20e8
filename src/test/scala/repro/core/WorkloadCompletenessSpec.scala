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

  // Each view's FD count per provenance type, in `FDType.all` order (base,
  // upstaged selection, upstaged left, upstaged right, inferred, joinFD):
  // pinned so that no change can move an FD between types unnoticed.
  private val typeCounts = Map(
    "PTE: atm ⋈ drug" -> Seq(6, 0, 0, 0, 2, 2),
    "PTE: active ⋈ drug" -> Seq(1, 0, 0, 0, 3, 0),
    "PTE: [bond ⋈ drug] ⋈ active" -> Seq(8, 0, 0, 0, 10, 7),
    "PTE: [atm ⋈ bond ⋈ atm] ⋈ drug" -> Seq(19, 0, 2, 1, 68, 349),
    "PTC: atom ⋈ molecule" -> Seq(3, 0, 0, 0, 4, 1),
    "PTC: connected ⋈ bond" -> Seq(5, 0, 0, 0, 6, 3),
    "PTC: [connected ⋈ bond] ⋈ molecule" -> Seq(6, 0, 0, 0, 12, 6),
    "PTC: connected ⋈_id1 [atom ⋈ molecule]" -> Seq(6, 0, 0, 0, 14, 10),
    "MIMIC3: diagnoses_icd ⋈ patients" -> Seq(15, 0, 0, 2, 20, 3),
    "MIMIC3: d_icd_diagnoses ⋈ diagnoses_icd" -> Seq(8, 0, 0, 0, 6, 2),
    "MIMIC3: [diagnoses_icd ⋈ patients] ⋈ d_icd_diagnoses" -> Seq(19, 0, 0, 2, 26, 5),
    "MIMIC3: Q(patients ⋈ admissions)" -> Seq(8, 30, 2, 0, 7, 3),
    "TPC-H: Q2*(P ⋈ PS ⋈ S ⋈ N ⋈ R)" -> Seq(11, 64, 0, 0, 26, 12),
    "TPC-H: Q3*(C ⋈ O ⋈ L)" -> Seq(1, 5, 0, 0, 3, 0),
    "TPC-H: Q9*(P ⋈ PS ⋈ S ⋈ L ⋈ O ⋈ N)" -> Seq(2, 27, 0, 0, 3, 1),
    "TPC-H: Q11*(PS ⋈ S ⋈ N)" -> Seq(31, 64, 0, 2, 27, 11),
  )

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
      assert(FDType.all.map(res.countByType) == typeCounts(s"${w.db}: ${w.name}"),
        res.countByType)
      catalog.values.foreach(_.unpersist())
    }
  }
}
