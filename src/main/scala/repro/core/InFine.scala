package repro.core

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.fd.{AttrSet => AS, _}
import repro.views._

/** Per-stage wall-clock accounting mirroring the paper's Table III /
  * Figure 5 breakdown. Step 1's collect of the base relations counts into
  * `collect`, their mining into `base`. Semijoin size checks count into
  * `upstaged`; candidate checks on a join node's shared validator count into
  * the stage that runs them (refine → `inferred`, join-FD search → `mine`),
  * and the join instance is materialized inside whichever stage checks a
  * candidate first.
  */
final class InFineStats {
  val nanos = mutable.Map.empty[String, Long].withDefaultValue(0L)
  def time[T](stage: String)(f: => T): T = {
    val t0 = System.nanoTime()
    try f finally nanos(stage) += System.nanoTime() - t0
  }
  def seconds(stage: String): Double = nanos(stage) / 1e9
}

/** Result of the InFine pipeline on one view. */
final case class InFineResult(
    schema: ViewSchema,
    triples: Set[ProvenanceTriple],
    stats: InFineStats,
) {
  def fds: Set[FD] = triples.map(_.fd)
  def countByType: Map[FDType, Int] =
    FDType.all.map(t => t -> triples.count(_.fdType == t)).toMap
  def render: Seq[String] = triples.toSeq
    .sortBy(t => (t.fdType.label, AS.size(t.fd.lhs), t.fd.rhs))
    .map(_.render(schema))
}

/** InFine — Algorithm 1. Mines base-table FDs restricted to the view's
  * projected attributes, then recursively derives the FDs (with provenance)
  * of every sub-view without ever materializing the full view for mining.
  */
object InFine {

  private final class Context(
      val schema: ViewSchema,
      val eval: ViewEval,
      /** Step 1's collected base relations, and the driver's view evaluator. */
      val driver: DriverEval,
      /** A_V — the view's projected attributes (paper line #2). */
      val minedAttrs: AS.T,
      val stats: InFineStats,
      val deadline: Deadline,
  ) {
    /** The DataFrames cached by this run, until [[release]]. */
    private val cached = mutable.ArrayBuffer.empty[DataFrame]
    def release(): Unit = cached.foreach(_.unpersist())

    /** The instance of `spec`, with the base rows behind its rows if the
      * driver holds them: then sized without a Spark job, else counted by
      * Spark on first use. Its DataFrame is built only if it is counted or
      * its validators go to Spark.
      */
    def instance(spec: ViewSpec, rows: Option[DriverRows]): Instance = {
      lazy val df = catalyst(spec)
      new Instance(rows, rows.fold(count(df))(_.nRows.toLong), df)
    }

    /** `df`'s row count, a Spark action, issued only before the deadline. */
    def count(df: DataFrame): Long = { deadline.check("a Catalyst count"); df.count() }

    /** A base relation as is, any other sub-view cached (lazily: nothing is
      * computed until a stage touches it).
      */
    private def catalyst(spec: ViewSpec): DataFrame = spec match {
      case r: Rel => eval.relDf(r)
      case _      => val df = eval.eval(spec).cache(); cached += df; df
    }

    /** Validator over `in` restricted to `attrs` ∩ A_V, answering first from
      * `known` cardinalities and `in`'s size. Lazy: the instance is only read
      * when a candidate check actually needs data, so purely logical stages
      * never pair a join's rows nor run a Spark job. Its size is known, so
      * `Validator.forDataFrame` only picks where the checks run; a cached
      * projection is released with the rest.
      */
    def validator(in: Instance, attrs: AS.T, known: Map[AS.T, Long] = Map.empty): FDValidator =
      new LazyValidator(in.count, known, () =>
        Validator.forDataFrame(in.df, AS.intersect(attrs, minedAttrs), in.count,
            in.rows.map(rows => driver.table(rows, _)), deadline) match {
          case v: SparkValidator => cached += v.df; v
          case v                 => v
        })
  }

  /** A sub-view instance: the base rows behind its rows whenever
    * `DriverEval.eval` returns them (no outer join, join keys of one
    * comparable type), and the instance as a DataFrame, built on first use.
    * `count` is computed on first use, without a Spark job when the rows
    * are on the driver.
    */
  private final class Instance(val rows: Option[DriverRows], countIt: => Long, dfIt: => DataFrame) {
    lazy val count: Long   = countIt
    lazy val df: DataFrame = dfIt
  }

  /** Intermediate result of `provFDs` on a sub-view: its instance, its
    * projected global attributes, and the provenance triples of every
    * minimal FD holding on it.
    */
  private final case class NodeResult(instance: Instance, attrs: AS.T,
                                      triples: Set[ProvenanceTriple]) {
    def fds: Set[FD] = triples.map(_.fd)
  }

  /** One input of an inner join: its attributes, its join attributes, and
    * its own plus its upstaged FDs.
    */
  private[core] final case class Side(attrs: AS.T, keys: AS.T, known: Set[FD])

  /** The validator of an inner equi-join `l ⋈ r` for Algorithms 4–5: it
    * answers from one side's FDs every check that they decide, and sends
    * the rest to `v`, the join's own validator, so the join is read only
    * for checks that need its data. `twins` are the join's key pairs
    * `(x_i, y_i)` with both keys in `aV`, the view's attributes A_V.
    *
    *  - Twin equality: an inner equi-join pairs rows on equal keys only, and
    *    a null key matches nothing, so `x_i = y_i` on every row of the join.
    *    A check over a set is the same check with each twin swapped for the
    *    other, so the decorator first folds every key into its twin on one
    *    side, then on the other.
    *  - Lemma 2: an FD over one side's attributes holds on `l ⋈ r` exactly
    *    when it holds on that side's semijoin, whose rows the join only
    *    repeats. After Algorithm 3 the side's known FDs contain every minimal
    *    FD of that semijoin over its attributes in A_V, so `X → b` with
    *    `X ∪ {b}` inside one side holds iff `b ∈ X` or some known `W → b`
    *    has `W ⊆ X`.
    *  - No key: if `X` lies inside one side and its closure under the side's
    *    FDs misses one of the side's attributes in A_V, two rows of the
    *    semijoin agree on `X` and differ there; both have partners on the
    *    other side, so two rows of the join agree on `X`.
    *
    * Cardinalities and `retain` go to `v`. Algorithm 3's searches use `v`
    * itself: they are what makes each side's FD set complete.
    */
  private[core] final class InnerJoinValidator(v: FDValidator, left: Side, right: Side,
                                               twins: Seq[(Int, Int)], aV: AS.T)
      extends FDValidator {
    /** One side: its attributes in A_V, the LHSs of its known FDs by RHS,
      * and the twins `(other, own)` its folding swaps.
      */
    private final class OneSide(side: Side, fold: Seq[(Int, Int)]) {
      val attrs = AS.intersect(side.attrs, aV)
      private val lhsOf = side.known.groupBy(_.rhs).view.mapValues(_.toSeq.map(_.lhs)).toMap
      def set(x: AS.T): AS.T = fold.foldLeft(x) { case (s, (o, t)) =>
        if (AS.contains(s, o)) AS.add(AS.remove(s, o), t) else s
      }
      def attr(a: Int): Int = fold.collectFirst { case (o, t) if o == a => t }.getOrElse(a)
      def inside(x: AS.T): Boolean = AS.subsetOf(x, attrs)
      def holds(lhs: AS.T, b: Int): Boolean =
        AS.contains(lhs, b) || lhsOf.get(b).exists(_.exists(AS.subsetOf(_, lhs)))
      def notKey(x: AS.T): Boolean = !AS.subsetOf(attrs, FDSet.closure(x, side.known))
    }
    private val sides = Seq(new OneSide(left, twins.map(_.swap)), new OneSide(right, twins))

    def nRows: Long = v.nRows
    def cardinality(attrs: AS.T): Long = v.cardinality(attrs)
    override def retain(sets: Iterable[AS.T]): Unit = v.retain(sets)

    override def holds(lhs: AS.T, rhs: Int): Boolean =
      sides.find(s => s.inside(AS.add(s.set(lhs), s.attr(rhs))))
        .fold(v.holds(lhs, rhs))(s => s.holds(s.set(lhs), s.attr(rhs)))

    override def isKey(attrs: AS.T): Boolean =
      !sides.exists { s => val x = s.set(attrs); s.inside(x) && s.notKey(x) } && v.isKey(attrs)
  }

  def run(spec: ViewSpec, catalog: Map[String, DataFrame],
          baseMiner: Miner = Tane,
          deadline: Deadline = Deadline.never): InFineResult = {
    val schema = ViewSchema.of(spec, t => catalog(t).columns.toSeq)
    val eval   = new ViewEval(schema, catalog)
    val stats  = new InFineStats
    val aV     = schema.idsOf(spec)
    val driver = stats.time("collect")(DriverEval.collect(eval, spec, aV, deadline))
    val base   = stats.time("base")(baseTriples(driver, spec, aV, baseMiner, deadline))
    val ctx    = new Context(schema, eval, driver, aV, stats, deadline)
    try InFineResult(schema, provFDs(ctx, spec, base).triples, stats)
    finally ctx.release()
  }

  /** Step 1 (lines #3–5): `miner`'s FDs of each base-relation instance of
    * `spec`, over the columns `driver` collected of it that survive the
    * view's projections (`aV`), as "base" triples by alias.
    */
  private[core] def baseTriples(driver: DriverEval, spec: ViewSpec, aV: AS.T, miner: Miner,
                                deadline: Deadline): Map[String, Set[ProvenanceTriple]] =
    spec.rels.map { r =>
      val table = driver.baseTable(r, aV)
      val fds   = if (table.width == 0) Set.empty[FD] else miner.mine(table, deadline)
      r.alias -> fds.map(ProvenanceTriple(_, FDType.Base, r))
    }.toMap

  /** The recursive subroutine of Algorithm 1. */
  private def provFDs(ctx: Context, spec: ViewSpec, base: Map[String, Set[ProvenanceTriple]]): NodeResult =
    spec match {
      case r: Rel =>
        NodeResult(ctx.instance(r, Some(ctx.driver.rel(r))), ctx.schema.attrsOf(r.alias), base(r.alias))

      case Project(attrs, in) =>
        // Mining was restricted to A_V up-front (Section IV-A): recursion
        // only narrows the instance; FDs over dropped attributes were never
        // mined, and Theorem 1 says no new FDs can appear.
        val child = provFDs(ctx, in, base)
        val keep  = AS.fromIterable(attrs.map(ctx.schema.id))
        val triples = child.triples.filter(t => AS.subsetOf(t.fd.attrs, keep))
        NodeResult(child.instance, keep, triples)

      case s @ Select(p, in) =>
        val child = provFDs(ctx, in, base)
        val (sel, up) = ctx.stats.time("selection") {
          val sel = ctx.instance(s, child.instance.rows.map(ctx.driver.select(p, _)))
          (sel, upstaged(ctx, child, sel.count, ctx.validator(sel, child.attrs)))
        }
        val triples = merge(child.triples,
          up.map(d => ProvenanceTriple(d, FDType.UpstagedSelection, s)))
        NodeResult(sel, child.attrs, triples)

      case j @ Join(l, r, _, _) =>
        joinNode(ctx, j, provFDs(ctx, l, base), provFDs(ctx, r, base))
    }

  private def joinNode(ctx: Context, j: Join, lRes: NodeResult, rRes: NodeResult): NodeResult = {
    val schema = ctx.schema
    // The join on the driver's codes: sized, with its ⋉/⋊ sizes, before
    // any row is paired. None for a join the driver does not pair (an outer
    // join, key types that differ).
    val onDriver = for {
      l  <- lRes.instance.rows
      r  <- rRes.instance.rows
      dj <- ctx.stats.time("upstaged")(ctx.driver.join(l, r, j))
    } yield dj
    val instance = ctx.instance(j, onDriver.flatMap(_.rows(j.kind)))
    val (lKeys, rKeys) = j.on.map { case (a, b) => (schema.id(a), schema.id(b)) }.unzip
    val (lKeySet, rKeySet) = (AS.fromIterable(lKeys), AS.fromIterable(rKeys))
    // Cardinalities the driver's per-key counts give: on l ⋈ r each side's
    // key columns, and both together, take one value per key that matches;
    // on l ⋉ r (l ⋊ r) the left (right) key columns do.
    val keyCards: Map[AS.T, Long] = onDriver.fold(Map.empty[AS.T, Long]) { dj =>
      val m = dj.matchedKeys.toLong
      j.kind match {
        case JoinKind.Inner     => Map(lKeySet -> m, rKeySet -> m, AS.union(lKeySet, rKeySet) -> m)
        case JoinKind.LeftSemi  => Map(lKeySet -> m)
        case JoinKind.RightSemi => Map(rKeySet -> m)
        case _                  => Map.empty
      }
    }

    j.kind match {
      case JoinKind.LeftSemi | JoinKind.RightSemi =>
        // A semijoin is a selection of one side (Definition 3: proj keeps
        // that side only) — upstaged FDs mined exactly like Algorithm 2.
        val left = j.kind == JoinKind.LeftSemi
        val side = if (left) lRes else rRes
        val tpe  = if (left) FDType.UpstagedLeft else FDType.UpstagedRight
        val up = ctx.stats.time("upstaged") {
          upstaged(ctx, side, instance.count, ctx.validator(instance, side.attrs, keyCards))
        }
        NodeResult(instance, side.attrs,
          merge(side.triples, up.map(d => ProvenanceTriple(d, tpe, j))))

      case JoinKind.Inner =>
        val attrs = AS.union(lRes.attrs, rRes.attrs)
        // One lazily-materialized validator serves every stage of this join
        // node; if logical pruning leaves nothing to check, the joined
        // instance is never computed at all.
        val joinValidator = ctx.validator(instance, attrs, keyCards)

        // Algorithm 3 — upstaged left/right via semijoin size checks. The
        // FDs over side I's attributes that hold on I ⋈ J are exactly those
        // of I ⋉ J: the join only duplicates rows equal on I, which cannot
        // violate an FD over I (Lemma 2). So the semijoin is only counted,
        // and candidates are checked on the shared join validator, whose
        // distinct counts over one side equal the semijoin's.
        def semiCount(kind: JoinKind) = ctx.count(ctx.eval.eval(j.copy(kind = kind)))
        val (leftUp, rightUp) = ctx.stats.time("upstaged") {
          (upstaged(ctx, lRes, onDriver.fold(semiCount(JoinKind.LeftSemi))(_.leftMatched.toLong), joinValidator),
           upstaged(ctx, rRes, onDriver.fold(semiCount(JoinKind.RightSemi))(_.rightMatched.toLong), joinValidator))
        }
        val left  = Side(lRes.attrs, lKeySet, lRes.fds ++ leftUp)
        val right = Side(rRes.attrs, rKeySet, rRes.fds ++ rightUp)
        val twins = lKeys.zip(rKeys).filter { case (x, y) =>
          AS.contains(ctx.minedAttrs, x) && AS.contains(ctx.minedAttrs, y)
        }
        // Algorithms 4–5 read the join only for checks neither side decides.
        val joinChecks = new InnerJoinValidator(joinValidator, left, right, twins, ctx.minedAttrs)

        // Join-predicate equalities: x_i ↔ y_i hold on every inner equi-join
        // result; they are Armstrong-derivable from the join condition, so
        // they carry "inferred" provenance.
        val equalities = twins.flatMap { case (x, y) => Seq(FD(AS.single(x), y), FD(AS.single(y), x)) }.toSet

        val knownAfterUp = left.known ++ right.known ++ equalities
        val inferred = ctx.stats.time("inferred") {
          inferFDs(ctx, joinChecks, left, right, knownAfterUp)
        }
        val joinFds = ctx.stats.time("mine") {
          mineFDs(ctx, joinChecks, left, right, knownAfterUp ++ inferred)
        }

        val newTriples =
          leftUp.map(d => ProvenanceTriple(d, FDType.UpstagedLeft, j)) ++
          rightUp.map(d => ProvenanceTriple(d, FDType.UpstagedRight, j)) ++
          (equalities ++ inferred).map(d => ProvenanceTriple(d, FDType.Inferred, j)) ++
          joinFds.map(d => ProvenanceTriple(d, FDType.JoinFD, j))
        NodeResult(instance, attrs, merge(lRes.triples ++ rRes.triples, newTriples))

      case _ =>
        // Outer joins: null padding can re-type or invalidate categories in
        // ways Theorem 1 does not cover under null==null semantics, so we
        // fall back to a direct pruned mining of the sub-view and classify
        // against the children (none of the paper's 16 experimental views
        // uses an outer join).
        val attrs = AS.union(lRes.attrs, rRes.attrs)
        val mined = ctx.stats.time("mine") {
          LatticeSearch.mineNew(AS.intersect(attrs, ctx.minedAttrs),
            ctx.validator(instance, attrs), Set.empty[FD], ctx.deadline)
        }
        NodeResult(instance, attrs, Provenance.classify(mined, lRes.triples ++ rRes.triples,
          Some((lRes.attrs, rRes.attrs)), j))
    }
  }

  /** Algorithms 2–3: the new minimal FDs over `parent`'s attributes in A_V
    * that hold on a selection or semijoin of `parent` with `subCount` rows,
    * checked through `validator`. Only a sub-instance that lost tuples can
    * gain FDs (line #4 / #14); the search is pruned by `parent`'s FDs
    * (lines #8–9).
    */
  private def upstaged(ctx: Context, parent: NodeResult, subCount: => Long,
                       validator: FDValidator): Set[FD] = {
    val universe = AS.intersect(parent.attrs, ctx.minedAttrs)
    if (AS.isEmpty(universe) || subCount >= parent.instance.count) Set.empty
    else LatticeSearch.mineNew(universe, validator, parent.fds, ctx.deadline)
  }

  /** Algorithm 4 — inferred FDs of an inner equi-join.
    *
    * `infer`: Armstrong transitivity through the join attributes (Theorem
    * 2): any `A → X` on one side combined with `Y → b` on the other yields
    * `A → b` on the join. Candidate `A`s are the LHSs of the side's known
    * FDs (plus its join attributes, covering the trivial `X → X`); `b`
    * ranges over the closure of the other side's join attributes.
    *
    * `refine`: each inferred `A → b` is minimized on the join validator —
    * the minimal `A' ⊆ A` with `A' → b`, pruned by `known` and by the FDs
    * refined so far. One search per `A` minimizes all its `b`s, so they
    * share the partitions of the subsets of `A`.
    */
  private def inferFDs(ctx: Context, joinValidator: FDValidator,
                       left: Side, right: Side, known: Set[FD]): Set[FD] = {
    // Join attributes must be minable for transitivity bookkeeping.
    if (!AS.subsetOf(AS.union(left.keys, right.keys), ctx.minedAttrs)) return Set.empty
    val out = mutable.Set.empty[FD]
    for ((src, dst) <- Seq(left -> right, right -> left)) {
      val determined = AS.diff(FDSet.closure(dst.keys, dst.known), dst.keys)
      val lhsPool = (src.known.map(_.lhs) + src.keys)
        .filter(a => !AS.isEmpty(a) && AS.subsetOf(src.keys, FDSet.closure(a, src.known)))
      for (a <- lhsPool)
        out ++= LatticeSearch.mineNew(a, joinValidator, known ++ out, ctx.deadline,
          rhsSpace = Some(determined))
    }
    FDSet.minimize(out).filterNot(d => FDSet.subsumedBy(known, d))
  }

  /** Algorithm 5 — the remaining join FDs, mined selectively.
    *
    * Theorem 4 bounds the RHS: `b` can be the RHS of a join FD only if its
    * own side already determines it on the join. Since upstaged mining is
    * complete over each side, that means some known FD of the side has RHS
    * `b`, or `b` is a join attribute (determined by its twin). A join FD
    * must span both sides (Definition 7); candidates subsumed by `known`
    * are pruned before any data access.
    */
  private def mineFDs(ctx: Context, joinValidator: FDValidator,
                      left: Side, right: Side, known: Set[FD]): Set[FD] = {
    def plausible(s: Side): AS.T = {
      val minable = AS.intersect(s.attrs, ctx.minedAttrs)
      // If the side's join attributes were projected away we cannot apply
      // Theorem 4 soundly — fall back to the whole side.
      if (!AS.subsetOf(s.keys, ctx.minedAttrs)) minable
      else AS.intersect(minable, AS.union(AS.fromIterable(s.known.map(_.rhs)), s.keys))
    }
    val rhsSpace = AS.union(plausible(left), plausible(right))
    def crossSides(lhs: AS.T, rhs: Int): Boolean = {
      val s = AS.add(lhs, rhs)
      !AS.isEmpty(AS.intersect(s, left.attrs)) && !AS.isEmpty(AS.intersect(s, right.attrs))
    }
    LatticeSearch.mineNew(AS.intersect(AS.union(left.attrs, right.attrs), ctx.minedAttrs),
      joinValidator, known, ctx.deadline, rhsSpace = Some(rhsSpace), candFilter = crossSides)
  }

  /** Combine existing triples with newly discovered ones, then drop any FD
    * made non-minimal by a strictly more general newcomer (a base FD can
    * stop being minimal once the join upstages a generalization of it); on
    * duplicates, the earliest (sub-query-order) triple wins, per the
    * "first sub-query in which d holds" clause of Definition 8.
    */
  def merge(existing: Set[ProvenanceTriple],
            fresh: Iterable[ProvenanceTriple]): Set[ProvenanceTriple] = {
    val known   = existing.map(t => t.fd -> t).toMap
    val all     = known ++ fresh.iterator.filterNot(t => known.contains(t.fd)).map(t => t.fd -> t)
    val minimal = FDSet.minimize(all.keys)
    all.values.filter(t => minimal(t.fd)).toSet
  }
}
