package repro.fd

import scala.collection.mutable
import repro.fd.{AttrSet => AS}

/** The one level-wise lattice search: TANE (Huhtala, Kärkkäinen, Porkka,
  * Toivonen — Computer Journal 1999) extended with FDs already known to hold
  * on the instance. With nothing known it is the TANE baseline; with known
  * FDs it is the engine behind the paper's Algorithms 2 (selectionFDs),
  * 3 (upstagedFDs), 4 (refine) and 5 (mineFDs), whose lines #8–9 / #18–19
  * skip candidates implied by the known FDs without touching the data.
  *
  * A node X of the lattice checks `X\{a} → a` for each `a` of X in its RHS
  * candidate set C+(X). The search has TANE's four parts:
  *  - apriori generation: X enters level k+1 only if all its k-subsets
  *    survived level k;
  *  - C+ sets: C+(X) is the intersection of its parents' sets. When
  *    `X\{a} → a` holds, found or known, `a` leaves C+(X) (it is not minimal
  *    above X) and so does every attribute outside X (TANE's second rule: an
  *    FD with its RHS outside X is not minimal above X); a node with an empty
  *    C+ is deleted;
  *  - key pruning with superkey emission (below);
  *  - stripped partitions of at most two levels plus the singletons: the
  *    search tells the validator after each level which partitions the next
  *    level is built from ([[FDValidator.retain]]).
  *
  * Pruning skips only candidates that cannot be minimal, because a known or
  * found FD generalizes them or makes a smaller LHS determine their RHS. It
  * never skips a candidate merely implied by the known FDs: the target output
  * is the set of all minimal FDs of the instance — the same set a direct
  * miner reports on the materialized view — and minimal FDs may well be
  * transitive consequences of other FDs (those are exactly the paper's
  * "inferred" FDs).
  */
object LatticeSearch {

  /** Mine the minimal FDs with LHS in `universe` and RHS in `rhsSpace` that
    * hold on the instance behind `validator` and are not subsumed by a
    * same-RHS generalization in `known`.
    *
    * @param universe   global attributes spanning the LHS search space
    * @param known      FDs already known to hold on this instance
    * @param rhsSpace   admissible RHS attributes (defaults to `universe`);
    *                   may lie outside `universe`, as when Algorithm 4's
    *                   refine minimizes `A → b` over the subsets of `A`. The
    *                   lattice then spans universe ∪ rhsSpace, with at most
    *                   one attribute from outside `universe` per node
    * @param candFilter extra admissibility predicate on (lhs, rhs)
    *                   candidates (e.g. Algorithm 5 requires the FD to span
    *                   both join sides). A rejected candidate is neither
    *                   checked nor reported, and stays in C+, so its branch
    *                   stays alive
    */
  def mineNew(
      universe: AS.T,
      validator: FDValidator,
      known: Iterable[FD],
      deadline: Deadline = Deadline.never,
      rhsSpace: Option[AS.T] = None,
      candFilter: (AS.T, Int) => Boolean = (_, _) => true,
  ): Set[FD] = {
    val rhs      = rhsSpace.getOrElse(universe)
    val outside  = AS.diff(rhs, universe)
    val knownSet = known.toSet
    val out      = mutable.Set.empty[FD]
    // LHSs of the known and found FDs per RHS, for superkey emission.
    val lhsOf = Array.fill(AS.capacity)(mutable.ArrayBuffer.empty[AS.T])
    knownSet.foreach(d => lhsOf(d.rhs) += d.lhs)
    def report(d: FD): Unit = { out += d; lhsOf(d.rhs) += d.lhs }
    // The nodes that checked a candidate. Key checks read data, so they start
    // only once some node has; a search that pruning settles reads nothing.
    val checkedAt = mutable.Set.empty[AS.T]

    var parentCPlus = mutable.LongMap[AS.T](AS.empty -> rhs)
    var level: Seq[AS.T] = AS.toSeq(AS.union(universe, rhs)).map(AS.single)
    while (level.nonEmpty) {
      deadline.check("LatticeSearch")
      val cPlus = mutable.LongMap.empty[AS.T]
      level.foreach { x =>
        var c = rhs
        AS.foreach(x)(a => c &= parentCPlus(AS.remove(x, a)))
        // Only the node's outside attribute can be its RHS, its LHS being the rest.
        if (!AS.isEmpty(AS.intersect(x, outside))) c &= AS.intersect(x, outside)
        def holdsAbove(a: Int): Unit = c = AS.intersect(AS.remove(c, a), x)
        AS.foreach(x)(a => if (knownSet(FD(AS.remove(x, a), a))) holdsAbove(a))
        AS.foreach(AS.intersect(x, c)) { a =>
          val lhs = AS.remove(x, a)
          if (candFilter(lhs, a)) {
            checkedAt += x
            if (validator.holds(lhs, a)) { report(FD(lhs, a)); holdsAbove(a) }
          }
        }
        cPlus(x) = c
      }

      // Key pruning. For a superkey X we diverge from TANE's pseudo-code: its
      // minimality test consults C+ sets of same-level siblings that may
      // never have been generated (missing-as-empty silently drops minimal
      // FDs such as {B,C}→A when A alone is a key). Instead we emit X→c for
      // every c ∈ C+(X)\X that passes `candFilter` and that no reported or
      // known FD generalizes, and delete X. This loses no minimal W→c: either
      // W ∪ {c} is generated and checks it, or its generation was blocked by
      // a deleted superkey S ⊆ W ∪ {c} — S ⊂ W would make W→c non-minimal,
      // and S = S' ∪ {c} makes W itself a superkey, since closure(W) ⊇
      // S' ∪ {c} (no key exists at all when rows duplicate, and then nothing
      // is deleted), so W→c is emitted at W's own deletion: W is generated (a
      // deleted subset of W would make W→c non-minimal), it has c to emit,
      // and key checks that reached S reach W's level too.
      //
      // Each key check is a distinct count, so X is checked only where that
      // count is already taken (X checked a candidate) or X has something to
      // emit. Skipping a check only keeps a branch alive, so it loses nothing.
      // An X holding an outside attribute b emits nothing: a minimal W→b
      // above it has W ⊇ X\{b}, so W is a superkey and emits it.
      def emissions(x: AS.T): AS.T = {
        var e = AS.empty
        if (AS.isEmpty(AS.intersect(x, outside)))
          AS.foreach(AS.diff(cPlus(x), x)) { a =>
            if (candFilter(x, a) && !lhsOf(a).exists(w => AS.subsetOf(w, x))) e = AS.add(e, a)
          }
        e
      }
      val kept = level.filter { x =>
        !AS.isEmpty(cPlus(x)) && {
          val e = emissions(x)
          val superkey = checkedAt.nonEmpty && (checkedAt(x) || !AS.isEmpty(e)) && validator.isKey(x)
          if (superkey) AS.foreach(e)(a => report(FD(x, a)))
          !superkey
        }
      }
      parentCPlus = mutable.LongMap.from(kept.map(x => x -> cPlus(x)))
      level = nextLevel(kept, parentCPlus.contains, outside)
      validator.retain(if (level.isEmpty) Nil else kept)
    }
    out.toSet
  }

  /** TANE's generate_next_level: join two sets sharing all but their top
    * attribute, and keep the union if every one of its subsets one smaller
    * is `alive` and it holds at most one `outside` attribute.
    */
  private def nextLevel(kept: Seq[AS.T], alive: AS.T => Boolean, outside: AS.T): Seq[AS.T] =
    kept.groupBy(x => x & ~java.lang.Long.highestOneBit(x)).values.toSeq.flatMap { group =>
      for {
        i <- group.indices
        j <- (i + 1) until group.size
        z = AS.union(group(i), group(j))
        if AS.size(AS.intersect(z, outside)) <= 1 && AS.toSeq(z).forall(a => alive(AS.remove(z, a)))
      } yield z
    }
}
