package repro.core

import repro.fd.{AttrSet => AS, FD, FDValidator, LatticeSearch}

/** Algorithm 5 — remaining join FDs via selective mining.
  *
  * Theorem 4 bounds the search: an attribute `b` can be the RHS of a join
  * FD only if its own side's attributes already determine it on the join
  * (`Y A' → b` for some `A'` of `b`'s side). Since upstaged mining is
  * complete over each side, that reduces to: some known single-side FD has
  * RHS `b`, or `b` is a join attribute (determined by its twin). LHS
  * candidates must make the FD span both sides (Definition 7); everything
  * already subsumed by base / upstaged / inferred FDs is pruned before any
  * data access, and each surviving candidate is checked on the node's one
  * shared join validator: the cached join, projected to A_V.
  */
object MineFDs {

  def apply(ctx: InFine.Context, joinValidator: FDValidator, known: Set[FD],
            lKeys: Seq[Int], rKeys: Seq[Int],
            leftAttrs: AS.T, rightAttrs: AS.T,
            leftKnown: Set[FD], rightKnown: Set[FD]): Set[FD] = {
    val universe = AS.intersect(AS.union(leftAttrs, rightAttrs), ctx.minedAttrs)
    if (AS.isEmpty(universe)) return Set.empty
    val keyAttrs = AS.fromIterable(lKeys ++ rKeys)

    def plausibleSide(sideAttrs: AS.T, sideKnown: Set[FD], sideKeys: Seq[Int]): AS.T = {
      val minable = AS.intersect(sideAttrs, ctx.minedAttrs)
      // If the side's join attributes were projected away we cannot apply
      // Theorem 4 soundly — fall back to the whole side.
      if (!AS.subsetOf(AS.fromIterable(sideKeys), ctx.minedAttrs)) minable
      else {
        val withFdRhs = AS.fromIterable(sideKnown.map(_.rhs))
        AS.intersect(minable, AS.union(withFdRhs, AS.fromIterable(sideKeys)))
      }
    }

    val rhsSpace = AS.union(
      plausibleSide(leftAttrs, leftKnown, lKeys),
      plausibleSide(rightAttrs, rightKnown, rKeys))
    if (AS.isEmpty(rhsSpace)) return Set.empty

    // A join FD must span both sides (Definition 7).
    def crossSides(lhs: AS.T, rhs: Int): Boolean = {
      val s = AS.add(lhs, rhs)
      !AS.isEmpty(AS.intersect(s, leftAttrs)) && !AS.isEmpty(AS.intersect(s, rightAttrs))
    }

    LatticeSearch.mineNew(universe, joinValidator, known, ctx.deadline,
      rhsSpace = Some(rhsSpace), candFilter = crossSides)
  }
}
