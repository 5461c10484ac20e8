package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.views._

/** Adversarial completeness check: InFine vs direct mining on randomized
  * SPJ views over randomized small instances (deterministic seeds). This
  * exercises join/selection/projection combinations the 16 workloads don't.
  */
class RandomViewSpec extends SparkSpec {

  private def randomCatalog(rnd: scala.util.Random): Map[String, DataFrame] = {
    def table(name: String, nCols: Int): (String, DataFrame) = {
      val nRows = rnd.nextInt(10) + 1
      val rows  = Seq.fill(nRows)(Seq.fill[Any](nCols)(rnd.nextInt(3)))
      name -> df((0 until nCols).map(i => s"c$i"), rows)
    }
    Map(table("r", rnd.nextInt(2) + 2), table("s", rnd.nextInt(2) + 2), table("t", 2))
  }

  private def randomSpec(rnd: scala.util.Random, catalog: Map[String, DataFrame]): ViewSpec = {
    def pickCol(rel: String): String = {
      val cols = catalog(rel).columns
      cols(rnd.nextInt(cols.length))
    }
    val join1 = Join(Rel("r"), Rel("s"),
      Seq((AttrRef("r", pickCol("r")), AttrRef("s", pickCol("s")))))
    val base: ViewSpec =
      if (rnd.nextBoolean())
        Join(join1, Rel("t"), Seq((AttrRef("s", pickCol("s")), AttrRef("t", pickCol("t")))))
      else join1
    val withSel: ViewSpec =
      if (rnd.nextBoolean())
        Select(Pred.Cmp(AttrRef("r", pickCol("r")), "=", rnd.nextInt(3)), base)
      else base
    if (rnd.nextBoolean()) {
      val schema = ViewSchema.of(withSel, t => catalog(t).columns.toSeq)
      val refs   = ViewSchema.projRefs(withSel, schema)
      val keep   = refs.filter(_ => rnd.nextDouble() < 0.7)
      if (keep.size >= 2) Project(keep, withSel) else withSel
    } else withSel
  }

  /** InFine equals direct mining on random view `seed`. */
  private def check(seed: Int): Unit = {
    val rnd     = new scala.util.Random(seed * 7919 + 13)
    val catalog = randomCatalog(rnd)
    val spec    = randomSpec(rnd, catalog)
    val res     = InFine.run(spec, catalog)
    val direct  = directFds(spec, catalog)
    assert(res.fds == direct,
      s"\nspec=${spec.render}" +
      s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
      s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
  }

  (0 until 12).foreach { seed =>
    test(s"random SPJ view #$seed: InFine == direct mining") {
      check(seed)
    }
  }

  // The same views with every sub-view instance left to Spark.
  (0 until 12).foreach { seed =>
    test(s"random SPJ view #$seed at collect threshold 0: InFine == direct mining") {
      withThreshold(0)(check(seed))
    }
  }

  test("mixed paths: the driver holds a join's rows while Spark checks its FDs") {
    // 4-row bases and a 7-row join at threshold 5: the driver holds the rows
    // of every sub-view and checks the bases, and the 4-row selection above
    // the join, while the join's checks go to Spark.
    val l = df(Seq("k", "v"), Seq(Seq(1, "a"), Seq(1, "b"), Seq(2, "a"), Seq(3, "c")))
    val r = df(Seq("k", "w"), Seq(Seq(1, "x"), Seq(1, "y"), Seq(1, "x"), Seq(2, "z")))
    val catalog = Map("l" -> l, "r" -> r)
    val spec = Select(Pred.Cmp(AttrRef("r", "w"), "=", "x"),
      Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k")))))
    val mixed  = withThreshold(5)(InFine.run(spec, catalog))
    val direct = directFds(spec, catalog)
    assert(mixed.fds == direct,
      s"\nmissing=${(direct -- mixed.fds).map(mixed.schema.renderFd)}" +
      s"\nextra=${(mixed.fds -- direct).map(mixed.schema.renderFd)}")
    assert(mixed.countByType == InFine.run(spec, catalog).countByType)
  }

  test("back to the driver: a σ and a ⋉ under the threshold over bases above it") {
    // 6-row bases at threshold 4. σ_{w=a}(l) keeps 3 rows, on which k is a
    // key and w constant; its ⋉ with r keeps the 2 rows of k ∈ {1, 3}, on
    // which v is constant. Both are sized and checked on the driver, so
    // Spark runs only Step 1's collects.
    val l = df(Seq("k", "v", "w"), Seq(Seq(1, "p", "a"), Seq(2, "q", "a"), Seq(3, "p", "a"),
      Seq(1, "q", "b"), Seq(4, "r", "b"), Seq(5, "r", "b")))
    val r = df(Seq("k", "x"), Seq(Seq(1, "x"), Seq(3, "y"), Seq(3, "z"), Seq(6, "x"), Seq(7, "y"), Seq(8, "z")))
    val catalog = Map("l" -> l, "r" -> r)
    val spec = Join(Select(Pred.Cmp(AttrRef("l", "w"), "=", "a"), Rel("l")), Rel("r"),
      Seq((AttrRef("l", "k"), AttrRef("r", "k"))), JoinKind.LeftSemi)
    val res    = withThreshold(4)(InFine.run(spec, catalog))
    val direct = directFds(spec, catalog)
    assert(res.fds == direct,
      s"\nmissing=${(direct -- res.fds).map(res.schema.renderFd)}" +
      s"\nextra=${(res.fds -- direct).map(res.schema.renderFd)}")
    assert(res.countByType == InFine.run(spec, catalog).countByType)
    assert(res.countByType(FDType.UpstagedSelection) > 0 && res.countByType(FDType.UpstagedLeft) > 0,
      res.render.mkString("\n"))
    val jobs = withThreshold(4)(jobsOf(InFine.run(spec, catalog)))
    assert(jobs <= spec.rels.size, s"$jobs Spark jobs for ${spec.rels.size} base relations")
  }
}
