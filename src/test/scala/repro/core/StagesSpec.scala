package repro.core

import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.fd.{AttrSet => AS, _}
import repro.views._

/** Focused behaviour tests for the individual InFine stages (Algorithms
  * 2–5), on instances where each stage's trigger condition can be toggled.
  */
class StagesSpec extends SparkSpec {

  test("selectionFDs is skipped when the filter drops nothing") {
    val t = df(Seq("a", "b"), Seq(Seq("1", "x"), Seq("2", "x")))
    val catalog = Map("t" -> t)
    // b = 'x' keeps everything → no upstaged-selection triples.
    val spec = Select(Pred.Cmp(AttrRef("t", "b"), "=", "x"), Rel("t"))
    val res  = InFine.run(spec, catalog)
    assert(!res.triples.exists(_.fdType == FDType.UpstagedSelection))
  }

  test("selectionFDs mines new FDs when tuples are filtered") {
    val t = df(Seq("a", "b"), Seq(Seq("1", "x"), Seq("2", "x"), Seq("2", "y")))
    val catalog = Map("t" -> t)
    // a→b is violated by rows 2/3; filtering b='x' upstages it.
    val spec = Select(Pred.Cmp(AttrRef("t", "b"), "=", "x"), Rel("t"))
    val res  = InFine.run(spec, catalog)
    val up   = res.triples.filter(_.fdType == FDType.UpstagedSelection)
    assert(up.nonEmpty)
    // ∅→b must be among them (b became constant).
    val bId = res.schema.id(AttrRef("t", "b"))
    assert(up.exists(_.fd == FD(AS.empty, bId)))
  }

  test("joinUpFDs is skipped when the semijoin preserves all tuples") {
    val l = df(Seq("k", "v"), Seq(Seq("1", "x"), Seq("2", "y")))
    val r = df(Seq("k2", "w"), Seq(Seq("1", "p"), Seq("2", "q")))
    val res = InFine.run(
      Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2")))),
      Map("l" -> l, "r" -> r))
    assert(!res.triples.exists(t =>
      t.fdType == FDType.UpstagedLeft || t.fdType == FDType.UpstagedRight))
  }

  test("joinUpFDs mines the side that loses tuples") {
    // left loses the k=3 row (v is then constant); right loses nothing.
    val l = df(Seq("k", "v"), Seq(Seq("1", "x"), Seq("2", "x"), Seq("3", "y")))
    val r = df(Seq("k2", "w"), Seq(Seq("1", "p"), Seq("2", "q")))
    val res = InFine.run(
      Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2")))),
      Map("l" -> l, "r" -> r))
    val vId = res.schema.id(AttrRef("l", "v"))
    val t   = res.triples.find(_.fd == FD(AS.empty, vId))
    assert(t.isDefined)
    assert(t.get.fdType == FDType.UpstagedLeft)
    assert(!res.triples.exists(_.fdType == FDType.UpstagedRight))
  }

  test("inferred FDs require the transitivity path through the join key") {
    // left: a→k (and k key); right: k2→b. So a→b must be inferred.
    val l = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("2", "q"), Seq("3", "r")))
    val r = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("2", "v"), Seq("3", "w")))
    val res = InFine.run(
      Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2")))),
      Map("l" -> l, "r" -> r))
    val d = FD(AS.single(res.schema.id(AttrRef("l", "a"))), res.schema.id(AttrRef("r", "b")))
    val t = res.triples.find(_.fd == d)
    assert(t.isDefined, res.render.mkString("\n"))
    assert(t.get.fdType == FDType.Inferred)
  }

  test("join FDs: the paper's Theorem 3 instance yields a joinFD triple") {
    // L(X, A), R(Y, A', B) as in the appendix proof; AA'→b holds on the join
    // but is not Armstrong-derivable from the base FD sets.
    val l = df(Seq("x", "a"), Seq(Seq("0", "0"), Seq("1", "0"), Seq("1", "1"), Seq("2", "2")))
    val r = df(Seq("y", "ap", "b"),
      Seq(Seq("0", "0", "0"), Seq("1", "0", "0"), Seq("1", "1", "1"), Seq("2", "1", "0")))
    val res = InFine.run(
      Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "x"), AttrRef("r", "y")))),
      Map("l" -> l, "r" -> r))
    val d = FD(
      AS.of(res.schema.id(AttrRef("l", "a")), res.schema.id(AttrRef("r", "ap"))),
      res.schema.id(AttrRef("r", "b")))
    val t = res.triples.find(_.fd == d)
    assert(t.isDefined, res.render.mkString("\n"))
    assert(t.get.fdType == FDType.JoinFD)
  }

  test("merge drops base FDs made non-minimal by an upstaged generalization") {
    // base: {a,b}→c minimal; after filtering, a→c becomes valid.
    val t = df(Seq("a", "b", "c", "sel"), Seq(
      Seq("1", "1", "p", "keep"),
      Seq("1", "2", "q", "drop"),
      Seq("2", "1", "q", "keep"),
      Seq("2", "2", "q", "keep")))
    val spec = Select(Pred.Cmp(AttrRef("t", "sel"), "=", "keep"), Rel("t"))
    val res  = InFine.run(spec, Map("t" -> t))
    val aId = res.schema.id(AttrRef("t", "a")); val cId = res.schema.id(AttrRef("t", "c"))
    val general = FD(AS.single(aId), cId)
    if (res.fds.contains(general)) {
      // no specialization of it may survive
      assert(!res.fds.exists(d => d != general && general.generalizes(d)))
    }
  }

  test("Step 1's collect is timed as its own stage, apart from base mining") {
    val l = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("2", "q")))
    val r = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("2", "v")))
    val instant = new Miner {
      def name = "instant"
      def mine(table: EncodedTable, deadline: Deadline): Set[FD] = Set.empty
    }
    val res = InFine.run(Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2")))),
      Map("l" -> l, "r" -> r), instant)
    val (collect, base) = (res.stats.seconds("collect"), res.stats.seconds("base"))
    assert(collect > 0 && base < collect, s"collect=$collect base=$base")
  }

  test("an expired deadline stops InFine at Step 1's collect, before any base mining") {
    val l = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("2", "q")))
    val r = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("2", "v")))
    var mined = 0
    val counting = new Miner {
      def name = "counting"
      def mine(table: EncodedTable, deadline: Deadline): Set[FD] = { mined += 1; Set.empty }
    }
    intercept[MinerTimeout](InFine.run(Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2")))),
      Map("l" -> l, "r" -> r), counting, Deadline.in(0)))
    assert(mined == 0)
  }

  test("at threshold 0 an expired deadline stops InFine before its first distinct count") {
    // The Theorem 3 instance: its join FD is checked on the join's data.
    val l = df(Seq("x", "a"), Seq(Seq("0", "0"), Seq("1", "0"), Seq("1", "1"), Seq("2", "2")))
    val r = df(Seq("y", "ap", "b"),
      Seq(Seq("0", "0", "0"), Seq("1", "0", "0"), Seq("1", "1", "1"), Seq("2", "1", "0")))
    val spec    = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "x"), AttrRef("r", "y"))))
    val catalog = Map("l" -> l, "r" -> r)
    // Base mining runs the clock out: the deadline passes after Step 1.
    val outlasting = new Miner {
      def name = "outlasting"
      def mine(table: EncodedTable, deadline: Deadline): Set[FD] = {
        while (!deadline.expired) Thread.sleep(5)
        Tane.mine(table)
      }
    }
    withThreshold(0) {
      assert(jobsOf(InFine.run(spec, catalog)) > spec.rels.size, "the join's checks run in Spark")
      val jobs = jobsOf(intercept[MinerTimeout](InFine.run(spec, catalog, outlasting, Deadline.in(1))))
      assert(jobs == spec.rels.size, s"$jobs Spark jobs, past Step 1's ${spec.rels.size} collects")
    }
  }

  test("Straightforward pipeline agrees with InFine and labels provenance") {
    val l = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("2", "q"), Seq("3", "r")))
    val r = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("2", "v")))
    val spec = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2"))))
    val catalog = Map("l" -> l, "r" -> r)
    val sf  = Straightforward.run(spec, catalog, Tane)
    val inf = InFine.run(spec, catalog)
    assert(sf.fds == inf.fds)
    assert(sf.viewRows == 2)
    assert(sf.triples.map(_.fd) == sf.fds)
    assert(sf.totalSeconds >= sf.viewSeconds)
  }

  test("Straightforward labels a right-side FD that holds only on the join upstaged right") {
    // ∅→w holds on l ⋈ r (r's w=y row has no partner) but not on r.
    val l = df(Seq("k"), Seq(Seq("1"), Seq("2")))
    val r = df(Seq("k2", "w"), Seq(Seq("1", "x"), Seq("2", "x"), Seq("3", "y")))
    val spec = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2"))))
    val catalog = Map("l" -> l, "r" -> r)
    val sf  = Straightforward.run(spec, catalog, Tane)
    val d   = FD(AS.empty, sf.schema.id(AttrRef("r", "w")))
    val sfT = sf.triples.find(_.fd == d)
    assert(sfT.map(_.fdType).contains(FDType.UpstagedRight), sf.triples)
    val infT = InFine.run(spec, catalog).triples.find(_.fd == d)
    assert(infT.map(_.fdType) == sfT.map(_.fdType))
  }

  Seq[Miner](Tane, Fun, FastFDs, HyFD).foreach { m =>
    test(s"Straightforward with ${m.name} finds the same FDs") {
      val l = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("2", "q"), Seq("3", "p")))
      val r = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("2", "v"), Seq("3", "u")))
      val spec = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2"))))
      val res = Straightforward.run(spec, Map("l" -> l, "r" -> r), m)
      assert(res.fds == Straightforward.run(spec, Map("l" -> l, "r" -> r), Tane).fds)
    }
  }

  test("Straightforward caches nothing, also when its miner times out") {
    val l = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("2", "q")))
    val r = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("2", "v")))
    val spec = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2"))))
    spark.catalog.clearCache()
    intercept[MinerTimeout](Straightforward.run(spec, Map("l" -> l, "r" -> r), Tane, Deadline.in(0)))
    assert(spark.sharedState.cacheManager.isEmpty)
    // An expired deadline stops the run at Step 1's collect; a miner that
    // runs out of time stops it past the view.
    val outOfTime = new Miner {
      def name = "outOfTime"
      def mine(table: EncodedTable, deadline: Deadline): Set[FD] = throw MinerTimeout(name)
    }
    intercept[MinerTimeout](Straightforward.run(spec, Map("l" -> l, "r" -> r), outOfTime))
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("Straightforward on outer joins and mismatched key types matches direct mining") {
    // A null key and a key without partner on each side; "01" equals 1 only
    // once Spark coerces the string key to the int one.
    val l  = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("01", "q"), Seq("2", "p"), Seq(null, "r")))
    val r  = df(Seq("k2", "b"), Seq(Seq("1", "u"), Seq("3", "v"), Seq(null, "u")))
    val ri = r.withColumn("k2", col("k2").cast("int"))
    for (right <- Seq(r, ri); kind <- Seq(JoinKind.LeftOuter, JoinKind.FullOuter, JoinKind.Inner)) {
      val spec    = Join(Rel("l"), Rel("r"), Seq((AttrRef("l", "k"), AttrRef("r", "k2"))), kind)
      val catalog = Map("l" -> l, "r" -> right)
      val sf      = Straightforward.run(spec, catalog, Tane)
      assert(sf.fds == directFds(spec, catalog), spec.render)
      assert(sf.viewRows == new ViewEval(sf.schema, catalog).eval(spec).count(), spec.render)
    }
  }
}
