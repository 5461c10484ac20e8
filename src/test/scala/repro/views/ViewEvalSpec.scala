package repro.views

import repro.{Oracle, SparkSpec}

class ViewEvalSpec extends SparkSpec {

  private val patients = df(Seq("pid", "gender", "score"), Seq(
    Seq("1", "M", "5"), Seq("2", "F", "7"), Seq("3", "F", "9"), Seq("4", "M", "2")))
  private val visits = df(Seq("vid", "pid", "ward"), Seq(
    Seq("v1", "1", "A"), Seq("v2", "1", "B"), Seq("v3", "2", "A"), Seq("v4", "9", "C")))

  private val catalog = Map("patients" -> patients, "visits" -> visits)

  private def check(spec: ViewSpec): Unit = {
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val eval   = new ViewEval(schema, catalog)
    val sparkDf = eval.eval(spec)
    val sql     = s"SELECT * FROM ${eval.toSql(spec)} q"
    Oracle.assertEquivalent(sparkDf, sql, catalog.toSeq: _*)
  }

  test("base relation evaluates to renamed columns") {
    val spec   = Rel("patients")
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val d      = new ViewEval(schema, catalog).eval(spec)
    assert(d.columns.toSeq == Seq("a0", "a1", "a2"))
    assert(d.count() == 4)
    check(spec)
  }

  test("a dot or a backtick in a base column's name is part of the name") {
    val t      = df(Seq("a.b", "c`d"), Seq(Seq("1", "x"), Seq("2", "y")))
    val spec   = Rel("t")
    val schema = ViewSchema.of(spec, _ => t.columns.toSeq)
    val d      = new ViewEval(schema, Map("t" -> t)).eval(spec)
    assert(d.columns.toSeq == Seq("a0", "a1"))
    assert(d.collect().map(r => (r.getString(0), r.getString(1))).toSeq == Seq(("1", "x"), ("2", "y")))
  }

  test("projection keeps requested attributes") {
    val spec = Project(Seq(AttrRef("patients", "gender")), Rel("patients"))
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    assert(new ViewEval(schema, catalog).eval(spec).columns.toSeq == Seq("a1"))
    check(spec)
  }

  test("selection with string equality") {
    check(Select(Pred.Cmp(AttrRef("patients", "gender"), "=", "F"), Rel("patients")))
  }

  test("selection with numeric comparison") {
    check(Select(Pred.Cmp(AttrRef("patients", "score"), ">=", 5), Rel("patients")))
  }

  test("selection with and/or") {
    check(Select(
      Pred.Or(
        Pred.And(
          Pred.Cmp(AttrRef("patients", "gender"), "=", "M"),
          Pred.Cmp(AttrRef("patients", "score"), "<", 4)),
        Pred.Cmp(AttrRef("patients", "score"), ">", 8)),
      Rel("patients")))
  }

  test("inner join") {
    check(Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid")))))
  }

  test("left outer join") {
    check(Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid"))), JoinKind.LeftOuter))
  }

  test("right outer join") {
    check(Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid"))), JoinKind.RightOuter))
  }

  test("full outer join") {
    check(Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid"))), JoinKind.FullOuter))
  }

  test("left semi join keeps left attrs only") {
    val spec = Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid"))), JoinKind.LeftSemi)
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val d = new ViewEval(schema, catalog).eval(spec)
    assert(d.columns.length == 3)
    assert(d.count() == 2) // patients 1 and 2 have visits
    check(spec)
  }

  test("right semi join keeps right attrs only") {
    val spec = Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid"))), JoinKind.RightSemi)
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    assert(new ViewEval(schema, catalog).eval(spec).count() == 3) // v4 dangles
    check(spec)
  }

  test("self-join through aliases") {
    // patients as p1 joined to patients as p2 on gender — needs distinct ids.
    val spec = Join(Rel("patients", "p1"), Rel("patients", "p2"),
      Seq((AttrRef("p1", "gender"), AttrRef("p2", "gender"))))
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    assert(schema.size == 6)
    val d = new ViewEval(schema, catalog).eval(spec)
    assert(d.count() == 8) // 2 M's and 2 F's → 4 + 4 pairs
    check(spec)
  }

  test("SPJ composition: selection over join under projection") {
    check(Project(
      Seq(AttrRef("patients", "gender"), AttrRef("visits", "ward")),
      Select(Pred.Cmp(AttrRef("patients", "score"), ">", 4),
        Join(Rel("patients"), Rel("visits"),
          Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid")))))))
  }

  test("three-way join") {
    check(Join(
      Join(Rel("patients"), Rel("visits"),
        Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid")))),
      Rel("patients", "p2"),
      Seq((AttrRef("visits", "ward"), AttrRef("p2", "gender")))))
  }

  test("proj() follows Definition 3") {
    val join = Join(Rel("patients"), Rel("visits"),
      Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid"))))
    val schema = ViewSchema.of(join, t => catalog(t).columns.toSeq)
    assert(ViewSchema.projRefs(join, schema).size == 6)
    val semi = join.copy(kind = JoinKind.LeftSemi)
    assert(ViewSchema.projRefs(semi, schema).map(_.alias).toSet == Set("patients"))
  }

  test("render produces readable provenance subqueries") {
    val spec = Select(Pred.Cmp(AttrRef("patients", "gender"), "=", "F"),
      Join(Rel("patients"), Rel("visits"),
        Seq((AttrRef("patients", "pid"), AttrRef("visits", "pid")))))
    val r = spec.render
    assert(r.contains("patients ⋈"))
    assert(r.contains("σ[patients.gender = F]"))
  }
}
