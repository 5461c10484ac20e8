package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.views.{Join => VJoin, _}

/** Sanity checks for the synthetic stand-in generators: sizes, determinism,
  * key structure, and the FD phenomena the paper's evaluation depends on.
  */
class GeneratorsSpec extends SparkSpec {

  private val sf = 0.002

  test("mimic patients: subject_id is approximate-key (duplicates present)") {
    val p = MimicLite.patients(spark, sf).cache()
    val dups = p.groupBy("subject_id").count().filter(col("count") > 1).count()
    assert(dups > 0, "expected duplicated subjects")
    // duplicated rows conflict only on dod
    val conflict = p.groupBy("subject_id")
      .agg(countDistinct("dod").as("nd"), countDistinct("gender").as("ng"))
    assert(conflict.filter(col("nd") > 1).count() > 0)
    assert(conflict.filter(col("ng") > 1).count() == 0)
    p.unpersist()
  }

  test("mimic admissions: hadm_id is a key; derived FDs hold") {
    val a = MimicLite.admissions(spark, sf).cache()
    assert(a.select("hadm_id").distinct().count() == a.count())
    // insurance → insurance_code
    assert(a.groupBy("insurance").agg(countDistinct("insurance_code").as("n"))
      .filter(col("n") > 1).count() == 0)
    // ethnicity → language (both derived from the same hash)
    assert(a.groupBy("ethnicity").agg(countDistinct("language").as("n"))
      .filter(col("n") > 1).count() == 0)
    a.unpersist()
  }

  test("mimic: duplicated subjects never appear in admissions (upstage trigger)") {
    val p = MimicLite.patients(spark, sf)
    val a = MimicLite.admissions(spark, sf)
    val dupIds = p.groupBy("subject_id").count().filter(col("count") > 1).select("subject_id")
    assert(a.join(dupIds, "subject_id").count() == 0)
  }

  test("mimic: admissions has dangling subjects (coverage < 1 both ways)") {
    val p = MimicLite.patients(spark, sf)
    val a = MimicLite.admissions(spark, sf)
    val dangling = a.join(p, Seq("subject_id"), "left_anti").count()
    assert(dangling > 0)
    val unreferenced = p.join(a, Seq("subject_id"), "left_anti").count()
    assert(unreferenced > 0)
  }

  test("mimic: diagnoses_icd hadm_id → subject_id consistency with admissions") {
    val d = MimicLite.diagnosesIcd(spark, sf)
    val a = MimicLite.admissions(spark, sf)
    val joined = d.alias("d").join(a.alias("a"), col("d.hadm_id") === col("a.hadm_id"))
    assert(joined.filter(col("d.subject_id") =!= col("a.subject_id")).count() == 0)
  }

  test("generators are deterministic across invocations") {
    def fingerprint(df: org.apache.spark.sql.DataFrame): Long =
      df.select(pmod(xxhash64(df.columns.map(col): _*), lit(1000000007L)).as("h"))
        .agg(sum("h")).collect()(0).getLong(0)
    assert(fingerprint(MimicLite.patients(spark, sf)) == fingerprint(MimicLite.patients(spark, sf)))
    assert(fingerprint(TpchLite.supplier(spark, sf)) == fingerprint(TpchLite.supplier(spark, sf)))
    assert(fingerprint(PtcLite.connected(spark, 0.02)) == fingerprint(PtcLite.connected(spark, 0.02)))
  }

  test("pte: active covers ~88% of drugs") {
    val drugs  = PteLite.drug(spark, 0.02)
    val active = PteLite.active(spark, 0.02)
    assert(active.count() < drugs.count())
    assert(active.join(drugs, Seq("drug_id"), "left_anti").count() == 0) // FK holds
  }

  test("pte: bond drug_id is consistent with atom1's drug") {
    val atm  = PteLite.atm(spark, 0.02)
    val bond = PteLite.bond(spark, 0.02)
    val j = bond.alias("b").join(atm.alias("a"), col("b.atom1_id") === col("a.atm_id"))
    assert(j.count() > 0)
    assert(j.filter(col("b.drug_id") =!= col("a.drug_id")).count() == 0)
  }

  test("pte: element determines charge_type in atm") {
    val atm = PteLite.atm(spark, 0.02)
    assert(atm.groupBy("element").agg(countDistinct("charge_type").as("n"))
      .filter(col("n") > 1).count() == 0)
  }

  test("ptc: connected has both orientations of every bond") {
    val c = PtcLite.connected(spark, 0.02).cache()
    val fwd = c.select(col("atom1_id").as("x"), col("atom2_id").as("y"), col("bond_id"))
    val bwd = c.select(col("atom2_id").as("x"), col("atom1_id").as("y"), col("bond_id"))
    assert(fwd.except(bwd).count() == 0)
    // {atom1, atom2} → bond_id (each unordered pair maps to one bond)
    assert(c.groupBy("atom1_id", "atom2_id").agg(countDistinct("bond_id").as("n"))
      .filter(col("n") > 1).count() == 0)
    c.unpersist()
  }

  test("tpch: partsupp has 4 suppliers per part and a composite key") {
    val ps = TpchLite.partsupp(spark, 0.01).cache()
    assert(ps.groupBy("ps_partkey").count().filter(col("count") =!= 4).count() == 0)
    assert(ps.select("ps_partkey", "ps_suppkey").distinct().count() >= ps.count() * 0.95)
    ps.unpersist()
  }

  test("tpch: lineitem l_suppkey always matches a partsupp row (Q9 coverage)") {
    val sfT = 0.001
    val li = TpchLite.lineitemWithSupp(spark, sfT)
    val ps = TpchLite.partsupp(spark, sfT)
    val unmatched = li.join(ps,
      li("l_partkey") === ps("ps_partkey") && li("l_suppkey") === ps("ps_suppkey"),
      "left_anti").count()
    assert(unmatched == 0)
  }

  test("tpch: nation name is bijective with key; supplier phone_cc is nation-determined") {
    val n = TpchLite.nation(spark)
    assert(n.count() == 25)
    assert(n.select("n_name").distinct().count() == 25)
    val s = TpchLite.supplier(spark, 0.01)
    assert(s.groupBy("s_nationkey").agg(countDistinct("s_phone_cc").as("n"))
      .filter(col("n") > 1).count() == 0)
  }

  test("workload registry is complete and well-formed") {
    assert(Workloads.all.size == 16)
    assert(Workloads.all.map(_.db).distinct.sorted == Seq("MIMIC3", "PTC", "PTE", "TPC-H"))
    // every view's relations exist in its DB catalog
    Workloads.all.foreach { w =>
      val cat = Workloads.catalog(w.db, spark, 0.002)
      w.spec.rels.foreach(r => assert(cat.contains(r.table), s"${w.name}: ${r.table}"))
      // and every referenced attribute resolves
      val schema = ViewSchema.of(w.spec, t => cat(t).columns.toSeq)
      assert(schema.size > 0)
      assert(ViewSchema.projRefs(w.spec, schema).size ==
        repro.fd.AttrSet.size(schema.idsOf(w.spec)))
    }
  }

  test("every workload view evaluates and is non-empty at unit scale") {
    val sfOf = Map("MIMIC3" -> 0.002, "PTE" -> 0.02, "PTC" -> 0.02, "TPC-H" -> 0.001)
    Workloads.all.foreach { w =>
      val cat    = Workloads.catalog(w.db, spark, sfOf(w.db))
      val schema = ViewSchema.of(w.spec, t => cat(t).columns.toSeq)
      val n      = new ViewEval(schema, cat).eval(w.spec).count()
      assert(n > 0, s"${w.name} evaluated to an empty view")
    }
  }

  test("workload joins produce key-overlap (coverage signal)") {
    val w = Workloads.byName("active ⋈ drug")
    val cat = Workloads.catalog("PTE", spark, 0.02)
    val schema = ViewSchema.of(w.spec, t => cat(t).columns.toSeq)
    val driver = DriverEval.collect(new ViewEval(schema, cat), w.spec, schema.idsOf(w.spec))
    w.spec match {
      case j @ VJoin(l, r, _, _) =>
        val cov = driver.join(driver.eval(l).get, driver.eval(r).get, j).get.coverage
        assert(cov > 0.5 && cov <= 1.0, s"coverage $cov")
      case _ => fail("expected a join")
    }
  }
}
