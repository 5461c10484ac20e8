package repro.views

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.Workloads

/** The driver's sub-view evaluation keeps exactly the rows Catalyst keeps. */
class DriverEvalSpec extends SparkSpec {

  private val sfOf = Map("MIMIC3" -> 0.002, "PTE" -> 0.02, "PTC" -> 0.02, "TPC-H" -> 0.001)

  /** `spec`'s instance evaluated on the driver, from Step 1's collect. */
  private def onDriver(d: DriverEval, spec: ViewSpec): DriverRows = spec match {
    case r: Rel         => d.rel(r)
    case Project(_, in) => onDriver(d, in)
    case Select(p, in)  => d.select(p, onDriver(d, in))
    case Join(l, r, on, JoinKind.Inner) =>
      val j = d.join(onDriver(d, l), onDriver(d, r), on)
      assert(j.isDefined, on)
      j.get.inner
    case other => fail(s"no driver evaluation for ${other.render}")
  }

  private def selections(spec: ViewSpec): Seq[Select] = spec match {
    case s @ Select(_, in) => s +: selections(in)
    case Project(_, in)    => selections(in)
    case Join(l, r, _, _)  => selections(l) ++ selections(r)
    case _: Rel            => Seq.empty
  }

  /** Driver and Catalyst row counts of σ `spec` over `catalog`. */
  private def counts(spec: Select, catalog: Map[String, DataFrame]): (Long, Long) = {
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val eval   = new ViewEval(schema, catalog)
    val driver = DriverEval.collect(eval, spec, schema.idsOf(spec))
    (onDriver(driver, spec).nRows.toLong, eval.eval(spec).count())
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
        assert(driver == catalyst, s.render)
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
      assert(counts(Select(p, Rel("t")), t) == (expected, expected))
    }
  }
}
