package repro.fd

import scala.collection.mutable
import repro.fd.{AttrSet => AS}

/** Pruned level-wise lattice search for *new* minimal FDs over an instance,
  * given a set of FDs already known to hold on it.
  *
  * This is the engine behind the paper's Algorithms 2 (selectionFDs),
  * 3 (upstagedFDs), 4 (refine) and 5 (mineFDs): candidates subsumed by a
  * known valid FD with the same RHS are pruned without touching the data
  * (lines #8–9 / #18–19 of the paper's pseudo-code) and superkeys stop LHS
  * expansion.
  *
  * Pruning is deliberately *subsumption-only*, not full logical implication:
  * the target output is the set of all minimal FDs of the instance — the
  * same set a direct miner (TANE et al.) reports on the materialized view —
  * and minimal FDs may well be transitive consequences of other FDs (those
  * are exactly the paper's "inferred" FDs).
  */
object LatticeSearch {

  /** Mine the minimal FDs over `universe` that hold on the instance behind
    * `validator` and are not subsumed by a same-RHS generalization in
    * `known`.
    *
    * @param universe   global attributes spanning the LHS search space
    * @param known      FDs already known to hold on this instance
    * @param rhsSpace   admissible RHS attributes (defaults to `universe`);
    *                   may lie outside `universe`, as when Algorithm 4's
    *                   refine minimizes `A → b` over the subsets of `A`
    * @param candFilter extra admissibility predicate on (lhs, rhs)
    *                   candidates (e.g. Algorithm 5 requires the FD to span
    *                   both join sides); must be monotone in the sense that
    *                   pruning decisions stay sound: a rejected candidate is
    *                   simply never reported
    */
  def mineNew(
      universe: AS.T,
      validator: FDValidator,
      known: Iterable[FD],
      deadline: Deadline = Deadline.never,
      rhsSpace: Option[AS.T] = None,
      candFilter: (AS.T, Int) => Boolean = (_, _) => true,
  ): Set[FD] = {
    val attrs      = AS.toSeq(universe)
    val rhsAttrs   = AS.toSeq(rhsSpace.getOrElse(universe))
    val knownSeq   = known.toSeq
    val discovered = mutable.Set.empty[FD]

    // Valid-FD subsumption: candidate X→a is non-minimal if some valid W→a
    // has W ⊆ X. (Known FDs hold on this instance by Theorem 1.) Indexed by
    // RHS — the known set can hold thousands of FDs on FD-rich views.
    val knownByRhs = knownSeq.groupBy(_.rhs).withDefaultValue(Seq.empty)
    val discByRhs  = mutable.Map.empty[Int, mutable.ArrayBuffer[AS.T]]
    def subsumed(d: FD): Boolean =
      knownByRhs(d.rhs).exists(w => AS.subsetOf(w.lhs, d.lhs)) ||
      discByRhs.get(d.rhs).exists(_.exists(w => AS.subsetOf(w, d.lhs)))

    var level: IndexedSeq[AS.T] = IndexedSeq(AS.empty)
    while (level.nonEmpty) {
      deadline.check("LatticeSearch")
      val extendable = mutable.ArrayBuffer.empty[AS.T]
      level.foreach { x =>
        deadline.check("LatticeSearch")
        var anyOpenRhs = false
        rhsAttrs.foreach { a =>
          if (!AS.contains(x, a) && !subsumed(FD(x, a))) {
            if (candFilter(x, a)) {
              if (validator.holds(x, a)) {
                discovered += FD(x, a)
                discByRhs.getOrElseUpdate(a, mutable.ArrayBuffer.empty) += x
              } else anyOpenRhs = true
            } else {
              // Candidate inadmissible here, but a superset LHS may pass the
              // filter later — keep the branch alive.
              anyOpenRhs = true
            }
          }
        }
        val isSuperkey = !AS.isEmpty(x) && anyOpenRhs && validator.isKey(x)
        if (anyOpenRhs && !isSuperkey) extendable += x
      }
      val next = mutable.LinkedHashSet.empty[AS.T]
      extendable.foreach { x =>
        attrs.foreach { b => if (!AS.contains(x, b)) next += AS.add(x, b) }
      }
      level = next.toIndexedSeq
    }

    // Same-level discovery order can admit a non-minimal sibling; final
    // minimize keeps exactly the lhs-minimal ones.
    FDSet.minimize(discovered).filterNot(d => FDSet.subsumedBy(knownSeq, d))
  }
}
