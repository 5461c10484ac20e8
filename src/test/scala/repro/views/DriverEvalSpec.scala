package repro.views

import org.apache.spark.TestListenerBus
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, raise_error, udf}
import repro.SparkSpec
import repro.core.InFine
import repro.data.Workloads
import repro.fd.{Deadline, EncodedTable, MinerTimeout}

/** The driver's sub-view evaluation keeps exactly the rows Catalyst keeps,
  * and declines the joins it cannot pair.
  */
class DriverEvalSpec extends SparkSpec {

  private val sfOf = Map("MIMIC3" -> 0.002, "PTE" -> 0.02, "PTC" -> 0.02, "TPC-H" -> 0.001)

  private def selections(spec: ViewSpec): Seq[Select] = spec match {
    case s @ Select(_, in) => s +: selections(in)
    case Project(_, in)    => selections(in)
    case Join(l, r, _, _)  => selections(l) ++ selections(r)
    case _: Rel            => Seq.empty
  }

  /** Row counts of `spec` over `catalog`: on the driver from Step 1's
    * collect (None if the driver cannot evaluate it), and by Catalyst.
    */
  private def counts(spec: ViewSpec, catalog: Map[String, DataFrame]): (Option[Long], Long) = {
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val eval   = new ViewEval(schema, catalog)
    val rows   = DriverEval.collect(eval, spec, schema.idsOf(spec)).eval(spec)
    (rows.map(_.nRows.toLong), eval.eval(spec).count())
  }

  private val withSelection = Workloads.all.filter(w => selections(w.spec).nonEmpty)

  test("five workload views have a selection") {
    assert(withSelection.size == 5, withSelection.map(_.name))
  }

  withSelection.foreach { w =>
    test(s"${w.db}: ${w.name} — the driver's σ keeps Catalyst's rows") {
      val catalog = Workloads.catalog(w.db, spark, sfOf(w.db)).map { case (k, df) => k -> df.cache() }
      try selections(w.spec).foreach { s =>
        val (driver, catalyst) = counts(s, catalog)
        assert(driver.contains(catalyst), s.render)
      } finally catalog.values.foreach(_.unpersist())
    }
  }

  // One string column a and one b; a is null on the last row.
  private val t = Map("t" -> df(Seq("a", "b"),
    Seq(Seq("1", "y"), Seq("01", "y"), Seq("2", "n"), Seq(null, "y"))))
  private def a(op: String, v: Any) = Pred.Cmp(AttrRef("t", "a"), op, v)
  private val bIsY = Pred.Cmp(AttrRef("t", "b"), "=", "y")

  Seq(
    "a string column against an Int literal is coerced" -> (a("=", 1), 2L),
    "a null cell satisfies neither = nor <>" -> (Pred.Or(a("=", "2"), a("<>", "2")), 3L),
    "null OR true keeps the row" -> (Pred.Or(a("=", "9"), bIsY), 3L),
    "null AND true drops the row" -> (Pred.And(a("<>", "9"), bIsY), 2L),
  ).foreach { case (name, (p, expected)) =>
    test(s"driver σ: $name") {
      assert(counts(Select(p, Rel("t")), t) == (Some(expected), expected))
    }
  }

  test("Step 1 reads source columns whose names hold a dot or a backtick, with atoms on them") {
    val rows = Seq(Seq("1", "x"), Seq("2", "y"), Seq("1", null), Seq(null, "x"))
    val odd  = Map("o" -> df(Seq("a.b", "c`d"), rows))
    val ab   = Pred.Cmp(AttrRef("o", "a.b"), "=", 1)
    val cd   = Pred.Cmp(AttrRef("o", "c`d"), "=", "x")
    Seq(ab -> 2L, cd -> 2L, Pred.And(ab, cd) -> 1L, Pred.Or(ab, cd) -> 3L).foreach { case (p, n) =>
      assert(counts(Select(p, Rel("o")), odd) == (Some(n), n), Render.pred(p))
    }
    val spec   = Select(Pred.And(ab, cd), Rel("o"))
    val schema = ViewSchema.of(spec, t => odd(t).columns.toSeq)
    val codes  = DriverEval.collect(new ViewEval(schema, odd), spec, schema.idsOf(spec))
      .baseTable(Rel("o"), schema.idsOf(spec)).columns.map(_.toSeq).toSeq
    assert(codes == EncodedTable.fromRows(rows, IndexedSeq(0, 1)).columns.map(_.toSeq).toSeq)
  }

  test("an aliased self-join keeps Catalyst's rows under atoms on either instance") {
    val self = Map("l" -> df(Seq("k", "v"), Seq(Seq("1", "x"), Seq("1", "y"), Seq("2", "x"), Seq(null, "x"))))
    val join = Join(Rel("l", "l1"), Rel("l", "l2"), Seq(AttrRef("l1", "k") -> AttrRef("l2", "k")))
    def v(alias: String) = Pred.Cmp(AttrRef(alias, "v"), "=", "x")
    Seq(v("l1"), Pred.And(v("l1"), v("l2")), Pred.Or(v("l2"), Pred.Cmp(AttrRef("l1", "k"), "=", "2")))
      .foreach { p =>
        val (driver, catalyst) = counts(Select(p, join), self)
        assert(catalyst > 0 && driver.contains(catalyst), Render.pred(p))
      }
  }

  // l(k, v) and r(k2, w) with string keys; rInt is r with an int key.
  private val l    = df(Seq("k", "v"), Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "x")))
  private val r    = df(Seq("k2", "w"), Seq(Seq("1", "p"), Seq("1", "q"), Seq("3", "q"), Seq("4", "p")))
  private val rInt = r.withColumn("k2", col("k2").cast("int"))
  private def lr(kind: JoinKind) = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2"))), kind)

  test("driver eval: inner and semijoins keep Catalyst's rows") {
    Seq(JoinKind.Inner, JoinKind.LeftSemi, JoinKind.RightSemi).foreach { kind =>
      val (driver, catalyst) = counts(lr(kind), Map("l" -> l, "r" -> r))
      assert(driver.contains(catalyst), kind)
    }
  }

  test("driver eval: None for an outer join") {
    Seq(JoinKind.LeftOuter, JoinKind.RightOuter, JoinKind.FullOuter).foreach { kind =>
      assert(counts(lr(kind), Map("l" -> l, "r" -> r))._1.isEmpty, kind)
    }
  }

  test("driver eval: None for an inner join of more rows than an array holds, not for its semijoins") {
    // 46,341 rows a side, all of one key: 46,341² rows pass Int.MaxValue.
    val n       = 46341
    val catalog = Map("l" -> spark.range(n).selectExpr("1 AS k"), "r" -> spark.range(n).selectExpr("1 AS k2"))
    val inner   = lr(JoinKind.Inner)
    val schema  = ViewSchema.of(inner, t => catalog(t).columns.toSeq)
    val driver  = DriverEval.collect(new ViewEval(schema, catalog), inner, schema.idsOf(inner))
    val dj      = driver.join(driver.rel(Rel("l")), driver.rel(Rel("r")), inner).get
    assert(dj.size == 2147488281L)
    assert(dj.rows(JoinKind.Inner).isEmpty)
    assert(dj.rows(JoinKind.LeftSemi).map(_.nRows).contains(n))
    assert(driver.eval(inner).isEmpty)
  }

  test("driver eval: an expired deadline stops the joins and gathers, not before") {
    val catalog = Map("l" -> l, "r" -> r)
    val inner   = lr(JoinKind.Inner)
    val spec    = Select(Pred.Cmp(AttrRef("l", "v"), "=", "x"), inner)
    val schema  = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val eval    = new ViewEval(schema, catalog)
    DriverEval.collect(eval, spec, schema.idsOf(spec)) // warm, so that the collect below fits the budget
    val deadline = Deadline.in(3)
    val driver   = DriverEval.collect(eval, spec, schema.idsOf(spec), deadline)
    def semi     = driver.join(driver.rel(Rel("l")), driver.rel(Rel("r")), inner).get.rows(JoinKind.LeftSemi).get
    assert(driver.eval(inner).get.lineage("r").toSeq == Seq(0, 1, 2))
    assert(driver.eval(spec).get.nRows == 3)
    assert(semi.lineage("l").toSeq == Seq(0, 2))
    while (!deadline.expired) Thread.sleep(20)
    val joined = driver.eval(inner).get
    assert(joined.nRows == 3, "sizing needs no pairing")
    intercept[MinerTimeout](joined.lineage)
    intercept[MinerTimeout](driver.eval(spec))
    intercept[MinerTimeout](semi.lineage)
  }

  test("driver eval: None for join keys of different types, also under σ and π") {
    val inner   = lr(JoinKind.Inner)
    val catalog = Map("l" -> l, "r" -> rInt)
    assert(counts(inner, catalog)._1.isEmpty)
    val above = Project(Seq(AttrRef("l", "v")), Select(Pred.Cmp(AttrRef("l", "v"), "=", "x"), inner))
    assert(counts(above, catalog)._1.isEmpty)
  }

  /** `DriverJoin.matchedKeys` of the inner join `j`, and Catalyst's distinct
    * counts of its left and of its right key columns on `j`.
    */
  private def matchedKeys(j: Join, catalog: Map[String, DataFrame]): (Int, Long, Long) = {
    val schema = ViewSchema.of(j, t => catalog(t).columns.toSeq)
    val eval   = new ViewEval(schema, catalog)
    val driver = DriverEval.collect(eval, j, schema.idsOf(j))
    val dj     = driver.join(driver.eval(j.left).get, driver.eval(j.right).get, j).get
    val joined = eval.eval(j)
    def distinct(keys: Seq[AttrRef]) = joined.select(keys.map(a => col(schema.colName(a))): _*).distinct().count()
    (dj.matchedKeys, distinct(j.on.map(_._1)), distinct(j.on.map(_._2)))
  }

  test("matchedKeys: a null key matches nothing, as in Catalyst's join") {
    val l = df(Seq("k", "v"), Seq(Seq("1", "x"), Seq(null, "y"), Seq("2", "x"), Seq(null, "z")))
    val r = df(Seq("k2", "w"), Seq(Seq("1", "p"), Seq(null, "q"), Seq("3", "q"), Seq("1", "r")))
    assert(matchedKeys(lr(JoinKind.Inner), Map("l" -> l, "r" -> r)) == (1, 1L, 1L))
  }

  test("matchedKeys: a composite key with a null component matches nothing") {
    val l = df(Seq("k1", "k2"), Seq(Seq("1", "a"), Seq("1", null), Seq("2", "b"), Seq(null, "a")))
    val r = df(Seq("j1", "j2"), Seq(Seq("1", "a"), Seq("1", null), Seq("2", "b"), Seq("2", "b"), Seq(null, "a")))
    val j = Join(Rel("l"), Rel("r"),
      Seq(AttrRef("l", "k1") -> AttrRef("r", "j1"), AttrRef("l", "k2") -> AttrRef("r", "j2")))
    assert(matchedKeys(j, Map("l" -> l, "r" -> r)) == (2, 2L, 2L))
  }

  test("matchedKeys: [connected ⋈ bond] ⋈ molecule matches Catalyst's distinct key counts") {
    val catalog = Workloads.catalog("PTC", spark, sfOf("PTC")).map { case (k, df) => k -> df.cache() }
    try {
      val j = Workloads.byName("[connected ⋈ bond] ⋈ molecule").spec.asInstanceOf[Join]
      val (m, left, right) = matchedKeys(j, catalog)
      assert(m > 0 && m == left && m == right, (m, left, right))
    } finally catalog.values.foreach(_.unpersist())
  }

  test("Step 1 gives each relation the same codes on every collect") {
    // Both join keys are shared: connected and bond share bond_id's
    // dictionary, bond and molecule share molecule_id's.
    val catalog = Workloads.catalog("PTC", spark, sfOf("PTC")).map { case (k, df) => k -> df.cache() }
    try {
      val spec   = Workloads.byName("[connected ⋈ bond] ⋈ molecule").spec
      val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
      val aV     = schema.idsOf(spec)
      def codes() = {
        val driver = DriverEval.collect(new ViewEval(schema, catalog), spec, aV)
        spec.rels.map(r => r.alias -> driver.baseTable(r, aV).columns.map(_.toSeq).toSeq)
      }
      assert(codes() == codes())
    } finally catalog.values.foreach(_.unpersist())
  }

  test("a failing collect surfaces its own error once every other collect has returned") {
    // r's collect fails at once; l's, on one partition, takes a second.
    val slow    = udf { (s: String) => Thread.sleep(300); s }
    val slowL   = l.coalesce(1).withColumn("v", slow(col("v")))
    val failing = r.withColumn("w", raise_error(lit("no w here")))
    spark.catalog.clearCache()
    val e = intercept[Exception](InFine.run(lr(JoinKind.Inner), Map("l" -> slowL, "r" -> failing)))
    assert(!e.isInstanceOf[MinerTimeout])
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(c => String.valueOf(c.getMessage).contains("no w here")), e)
    TestListenerBus.drain(spark.sparkContext)
    assert(spark.sparkContext.statusTracker.getActiveJobIds().isEmpty)
    assert(spark.sharedState.cacheManager.isEmpty)
  }
}
