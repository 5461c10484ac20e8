package repro.core

import scala.collection.mutable
import repro.fd.{AttrSet => AS, FD, FDSet, FDValidator, LatticeSearch}

/** Algorithm 4 — inferred FDs of an inner equi-join.
  *
  * `infer`: Armstrong transitivity through the join attributes (Theorem 2):
  * any `A → X` on the left combined with `Y → b` on the right yields
  * `A → b` on the join (and symmetrically). Candidate `A`s are the LHSs of
  * the side's known FDs (plus the join attributes themselves, covering the
  * trivial `X → X`); `b` ranges over the closure of the other side's join
  * attributes.
  *
  * `refine`: each inferred `A → b` is minimized against the data — a
  * lattice search over the subsets `A' ⊆ A` for the minimal ones with
  * `A' → b`, pruned by the known FDs and by those refined so far. Every
  * candidate is checked on the node's one shared join validator: the
  * cached join, projected to A_V.
  */
object InferFDs {

  def apply(ctx: InFine.Context, joinValidator: FDValidator,
            leftKnown: Set[FD], rightKnown: Set[FD],
            lKeys: Seq[Int], rKeys: Seq[Int], known: Set[FD]): Set[FD] = {
    val xSet = AS.fromIterable(lKeys)
    val ySet = AS.fromIterable(rKeys)
    val out  = mutable.Set.empty[FD]

    def direction(srcKnown: Set[FD], srcKeySet: AS.T,
                  dstKnown: Set[FD], dstKeySet: AS.T): Unit = {
      // Join attributes must be minable for transitivity bookkeeping.
      if (!AS.subsetOf(srcKeySet, ctx.minedAttrs) ||
          !AS.subsetOf(dstKeySet, ctx.minedAttrs)) return
      // b ranges over what the other side's join attributes determine.
      val determined = AS.diff(FDSet.closure(dstKeySet, dstKnown), dstKeySet)
      if (AS.isEmpty(determined)) return
      // Candidate A: lhs of some src FD (or the join attrs) determining X.
      val lhsPool = (srcKnown.map(_.lhs) + srcKeySet)
        .filter(a => !AS.isEmpty(a) && AS.subsetOf(srcKeySet, FDSet.closure(a, srcKnown)))
      for (a <- lhsPool; b <- AS.toSeq(determined)) {
        refine(FD(a, b))
      }
    }

    /** Subroutine refine: minimal valid sub-FDs of `cand` on the join. */
    def refine(cand: FD): Unit =
      out ++= LatticeSearch.mineNew(cand.lhs, joinValidator, known ++ out, ctx.deadline,
        rhsSpace = Some(AS.single(cand.rhs)))

    direction(leftKnown, xSet, rightKnown, ySet)
    direction(rightKnown, ySet, leftKnown, xSet)
    FDSet.minimize(out).filterNot(d => FDSet.subsumedBy(known, d))
  }
}
