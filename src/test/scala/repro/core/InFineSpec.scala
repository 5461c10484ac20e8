package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.fd.{AttrSet => AS, _}
import repro.views._

/** End-to-end InFine tests on a crafted analog of the paper's Figure 1
  * running example: base FDs survive the join, an approximate FD upstages
  * to exact (patient #257 scenario), transitivity through the join key
  * yields inferred FDs, and the full output equals a direct mining run on
  * the materialized view.
  */
class InFineSpec extends SparkSpec {

  // PATIENT: pid is almost a key; #257 has a duplicate with conflicting dod,
  // and #257/#3/#4 have no admissions.
  private val patient = df(Seq("pid", "gender", "expire", "dod"), Seq(
    Seq("1", "M", "1", "2010-01-01"),
    Seq("2", "F", "1", "2011-02-02"),
    Seq("3", "M", "0", "NA"),
    Seq("4", "F", "0", "NA"),
    Seq("257", "M", "1", "2022-09-09"),
    Seq("257", "M", "1", "2023-03-03"), // conflicting dod → pid→dod approximate
  ))

  // ADMISSION: aid key; pid 9 dangles (no such patient).
  private val admission = df(Seq("aid", "pid", "insurance", "diag"), Seq(
    Seq("a1", "1", "Medicare", "flu"),
    Seq("a2", "1", "Medicare", "cold"),
    Seq("a3", "2", "Private", "flu"),
    Seq("a4", "2", "Private", "fracture"),
    Seq("a5", "9", "Self", "pain"),
  ))

  private val catalog = Map("patient" -> patient, "admission" -> admission)
  private val joinSpec = Join(Rel("patient"), Rel("admission"),
    Seq((AttrRef("patient", "pid"), AttrRef("admission", "pid"))))

  private lazy val result = InFine.run(joinSpec, catalog)
  private lazy val schema = result.schema

  private def id(alias: String, col: String) = schema.id(AttrRef(alias, col))
  private def fdOf(lhs: Seq[(String, String)], rhs: (String, String)): FD =
    FD(AS.fromIterable(lhs.map { case (a, c) => id(a, c) }), id(rhs._1, rhs._2))

  test("InFine equals direct mining on the materialized view (running example)") {
    val direct = directFds(joinSpec, catalog)
    assert(result.fds == direct,
      s"\nmissing=${(direct -- result.fds).map(schema.renderFd)}" +
      s"\nextra=${(result.fds -- direct).map(schema.renderFd)}")
  }

  test("base FDs carry 'base' provenance and the base sub-query") {
    val d = fdOf(Seq("admission" -> "aid"), "admission" -> "insurance")
    val t = result.triples.find(_.fd == d)
    assert(t.isDefined, "aid→insurance should survive the join")
    assert(t.get.fdType == FDType.Base)
    assert(t.get.subquery == Rel("admission"))
  }

  test("approximate pid→dod upstages to exact on the left side (patient #257)") {
    val d = fdOf(Seq("patient" -> "pid"), "patient" -> "dod")
    val t = result.triples.find(_.fd == d)
    assert(t.isDefined, s"pid→dod missing from:\n${result.render.mkString("\n")}")
    assert(t.get.fdType == FDType.UpstagedLeft)
    assert(t.get.subquery == joinSpec)
  }

  test("join-key equalities are inferred FDs") {
    val d = fdOf(Seq("patient" -> "pid"), "admission" -> "pid")
    val t = result.triples.find(_.fd == d)
    assert(t.isDefined)
    assert(t.get.fdType == FDType.Inferred)
  }

  test("transitivity through the join key yields inferred insurance→gender") {
    val d = fdOf(Seq("admission" -> "insurance"), "patient" -> "gender")
    val t = result.triples.find(_.fd == d)
    assert(t.isDefined, s"insurance→gender missing:\n${result.render.mkString("\n")}")
    assert(t.get.fdType == FDType.Inferred)
  }

  test("no FD in the output is subsumed by another (global minimality)") {
    val fds = result.fds
    fds.foreach { d =>
      assert(!fds.exists(o => o != d && o.generalizes(d)), schema.renderFd(d))
    }
  }

  test("every reported FD holds on the view (correctness, Theorem 6)") {
    val view = new ViewEval(schema, catalog).eval(joinSpec)
    val v    = new DriverValidator(Columns.encode(view, schema.idsOf(joinSpec)))
    result.fds.foreach(d => assert(v.holds(d.lhs, d.rhs), schema.renderFd(d)))
  }

  test("type counts sum to the total") {
    assert(result.countByType.values.sum == result.triples.size)
  }

  test("stats record time in the join stages") {
    assert(result.stats.nanos("base") > 0)
    assert(result.stats.nanos.contains("upstaged"))
  }

  test("selection on top of the join: upstaged selection FDs appear") {
    val sel = Select(Pred.Cmp(AttrRef("admission", "insurance"), "=", "Medicare"), joinSpec)
    val res = InFine.run(sel, catalog)
    val direct = directFds(sel, catalog)
    assert(res.fds == direct,
      s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
      s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
    // Only patient #1's rows survive — insurance is constant now.
    val constIns = FD(AS.empty, res.schema.id(AttrRef("admission", "insurance")))
    val t = res.triples.find(_.fd == constIns)
    assert(t.isDefined)
    assert(t.get.fdType == FDType.UpstagedSelection)
  }

  test("projection restricts mining to A_V") {
    val proj = Project(
      Seq(AttrRef("patient", "pid"), AttrRef("patient", "gender"),
          AttrRef("admission", "insurance")),
      joinSpec)
    val res    = InFine.run(proj, catalog)
    val direct = directFds(proj, catalog)
    assert(res.fds == direct,
      s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
      s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
    val keep = res.schema.idsOf(proj)
    res.fds.foreach(d => assert(AS.subsetOf(d.attrs, keep)))
    // admission.pid is projected away while patient.pid stays, so
    // Algorithm 4 is skipped and the cross-side FDs are joinFDs.
    assert(FDType.all.map(res.countByType) == Seq(1, 0, 1, 0, 0, 4), res.countByType)
  }

  test("semi-join view behaves like a one-sided selection") {
    // patient ⋉ admission and admission ⋊ patient keep the same patient rows.
    val on = Seq((AttrRef("patient", "pid"), AttrRef("admission", "pid")))
    Seq(
      Join(Rel("patient"), Rel("admission"), on, JoinKind.LeftSemi) -> FDType.UpstagedLeft,
      Join(Rel("admission"), Rel("patient"), on.map(_.swap), JoinKind.RightSemi) -> FDType.UpstagedRight,
    ).foreach { case (semi, upstaged) =>
      val res    = InFine.run(semi, catalog)
      val direct = directFds(semi, catalog)
      assert(res.fds == direct, semi.render +
        s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
        s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
      assert(res.triples.exists(_.fdType == upstaged), semi.render)
    }
  }

  test("outer join fallback still matches direct mining") {
    val outer = Join(Rel("patient"), Rel("admission"),
      Seq((AttrRef("patient", "pid"), AttrRef("admission", "pid"))), JoinKind.LeftOuter)
    val res    = InFine.run(outer, catalog)
    val direct = directFds(outer, catalog)
    assert(res.fds == direct,
      s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
      s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
  }

  /** InFine equals direct mining on `spec`, on the driver and at collect
    * threshold 0, with the same provenance types on both paths.
    */
  private def onBothPaths(spec: ViewSpec, cat: Map[String, DataFrame]): Unit = {
    val direct   = directFds(spec, cat)
    val onDriver = InFine.run(spec, cat)
    val inSpark  = withThreshold(0)(InFine.run(spec, cat))
    Seq(onDriver, inSpark).foreach { res =>
      assert(res.fds == direct, spec.render +
        s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
        s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
    }
    assert(onDriver.countByType == inSpark.countByType)
  }

  test("null join keys match nothing, on the driver and at collect threshold 0") {
    // A null k on each side: an equi-join pairs neither, while FDs still
    // treat null as one ordinary value.
    val l = df(Seq("k", "v"), Seq(Seq("1", "x"), Seq(null, "y"), Seq("2", "x"), Seq(null, "z")))
    val r = df(Seq("k", "w"), Seq(Seq("1", "p"), Seq(null, "q"), Seq("3", "p"), Seq("1", "q")))
    onBothPaths(Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k")))),
      Map("l" -> l, "r" -> r))
  }

  test("a projection that drops one join twin still equals direct mining on both paths") {
    // patient.pid is gone, so its twin admission.pid folds into nothing.
    val keep = Seq(AttrRef("patient", "gender"), AttrRef("patient", "dod"),
      AttrRef("admission", "aid"), AttrRef("admission", "pid"), AttrRef("admission", "insurance"))
    onBothPaths(Project(keep, joinSpec), catalog)
  }

  test("a composite-key join equals direct mining on both paths") {
    // (k1, k2) pairs: (1, a) twice on the left with different v, (2, b)
    // twice on the right, (3, a) and (1, b) dangle, one null key component.
    val l = df(Seq("k1", "k2", "v", "u"), Seq(Seq("1", "a", "p", "x"), Seq("1", "a", "q", "x"),
      Seq("2", "b", "p", "y"), Seq("3", "a", "r", "y"), Seq(null, "b", "r", "x")))
    val r = df(Seq("k1", "k2", "w"), Seq(Seq("1", "a", "m"), Seq("2", "b", "m"), Seq("2", "b", "n"),
      Seq("1", "b", "n"), Seq(null, "b", "m")))
    val spec = Join(Rel("l"), Rel("r"),
      Seq((AttrRef("l", "k1"), AttrRef("r", "k1")), (AttrRef("l", "k2"), AttrRef("r", "k2"))))
    onBothPaths(spec, Map("l" -> l, "r" -> r))
  }

  test("an aliased self-join equals direct mining on both paths") {
    // Each employee joined with their boss: e.boss = b.id.
    val emp = df(Seq("id", "boss", "dept", "site"), Seq(Seq("1", "1", "d1", "s1"),
      Seq("2", "1", "d1", "s1"), Seq("3", "1", "d2", "s2"), Seq("4", "3", "d2", "s1"),
      Seq("5", "3", "d2", "s2"), Seq("6", "9", "d3", "s3")))
    val spec = Join(Rel("emp", "e"), Rel("emp", "b"), Seq((AttrRef("e", "boss"), AttrRef("b", "id"))))
    onBothPaths(spec, Map("emp" -> emp))
  }

  test("a run at collect threshold 0 unpersists every DataFrame it cached") {
    val sel = Select(Pred.Cmp(AttrRef("admission", "insurance"), "=", "Medicare"), joinSpec)
    spark.catalog.clearCache()
    withThreshold(0)(InFine.run(sel, catalog))
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("provenance triples render human-readably") {
    val rendered = result.render
    assert(rendered.nonEmpty)
    assert(rendered.exists(_.contains("\"base\"")))
    assert(rendered.exists(_.contains("patient ⋈")))
  }
}
