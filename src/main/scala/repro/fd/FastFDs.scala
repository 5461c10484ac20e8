package repro.fd

import scala.collection.mutable
import repro.fd.{AttrSet => AS}

/** FastFDs (Wyss, Giannella, Robertson — DaWaK 2001).
  *
  * Tuple-oriented: compute the difference sets of tuple pairs (complement of
  * agree sets), then, per RHS attribute, enumerate the minimal covers
  * (hitting sets) of the difference sets containing that attribute via a
  * depth-first search. Pair enumeration is quadratic in the worst case —
  * the paper's experiments show exactly that (FastFDs > 2,000 s on the big
  * views) — so the bench harness runs it under a deadline.
  */
object FastFDs extends Miner {
  val name = "FastFDs"

  def mine(table: EncodedTable, deadline: Deadline = Deadline.never): Set[FD] = {
    val k = table.width
    if (k == 0) return Set.empty
    val universe = AS.universe(k)

    val diffSets = computeDifferenceSets(table, deadline)

    val out = mutable.Set.empty[FD]
    var a = 0
    while (a < k) {
      deadline.check(name)
      // D^a = minimal { D \ {a} | D ∈ diffSets, a ∈ D }.
      val da = minimizeSets(diffSets.iterator.filter(AS.contains(_, a)).map(AS.remove(_, a)).toSeq)
      if (da.isEmpty) {
        out += FD(AS.empty, a) // no pair ever differs on a: constant column
      } else if (!da.contains(AS.empty)) {
        // Some pair differs *only* on a → nothing determines a; otherwise DFS.
        findCovers(da, AS.diff(universe, AS.single(a)), deadline).foreach { lhs =>
          out += FD(lhs, a)
        }
      }
      a += 1
    }
    FDSet.minimize(out).map(table.globalize)
  }

  /** All distinct difference sets of tuple pairs agreeing on ≥1 attribute,
    * plus (if present) the all-attributes set for fully-disagreeing pairs.
    * Pairs are enumerated inside single-attribute partition classes so pairs
    * agreeing on nothing are never materialized; the full-difference set is
    * detected by counting. A pair is counted only in the class of the
    * first column it agrees on, so no set of seen pairs, which would grow
    * with the square of the rows, is needed.
    */
  private def computeDifferenceSets(table: EncodedTable, deadline: Deadline): Set[AS.T] = {
    val k = table.width
    val n = table.nRows
    val universe = AS.universe(k)
    var agreeing = 0L
    val diffs    = mutable.Set.empty[AS.T]

    var c = 0
    var sinceCheck = 0
    while (c < k) {
      val p = StrippedPartition.ofColumn(table.columns(c), n)
      val before = AS.universe(c)
      var ci = 0
      while (ci < p.classes.length) {
        deadline.check(name)
        val cls = p.classes(ci)
        var i = 0
        while (i < cls.length) {
          var j = i + 1
          while (j < cls.length) {
            // Low-cardinality columns make single classes quadratic: check
            // the budget inside the pair loop, not just per class.
            sinceCheck += 1
            if ((sinceCheck & 0xFFFF) == 0) deadline.check(name)
            val d = table.diff(cls(i), cls(j))
            if (AS.subsetOf(before, d)) {
              agreeing += 1
              if (!AS.isEmpty(d)) diffs += d
            }
            j += 1
          }
          i += 1
        }
        ci += 1
      }
      c += 1
    }
    // Pairs sharing no attribute value have difference set = universe.
    val totalPairs = n.toLong * (n - 1) / 2
    if (agreeing < totalPairs && n > 1) diffs += universe
    diffs.toSet
  }

  /** Keep only the ⊆-minimal sets. */
  private def minimizeSets(sets: Seq[AS.T]): Seq[AS.T] = {
    val distinct = sets.distinct.sortBy(AS.size)
    val kept     = mutable.ArrayBuffer.empty[AS.T]
    distinct.foreach { s => if (!kept.exists(m => AS.subsetOf(m, s))) kept += s }
    kept.toSeq
  }

  /** Enumerate the minimal hitting sets of `toCover` using attributes from
    * `allowed`, by DFS with a fixed attribute order (attrs sorted by how many
    * sets they cover, FastFDs' heuristic); non-minimal leaves are filtered at
    * the end.
    */
  private def findCovers(toCover: Seq[AS.T], allowed: AS.T, deadline: Deadline): Seq[AS.T] = {
    val found = mutable.ArrayBuffer.empty[AS.T]

    def hits(a: Int, sets: Seq[AS.T]): Int = sets.count(AS.contains(_, a))

    def dfs(path: AS.T, remaining: Seq[AS.T], candidates: Seq[Int]): Unit = {
      deadline.check(name)
      if (remaining.isEmpty) { found += path; return }
      // Only attrs still covering something are useful; order by coverage.
      val useful = candidates.filter(a => hits(a, remaining) > 0)
      if (useful.isEmpty) return
      val ordered = useful.sortBy(a => -hits(a, remaining))
      ordered.zipWithIndex.foreach { case (a, i) =>
        // Enforce an order on chosen attrs to avoid permuted duplicates.
        dfs(AS.add(path, a), remaining.filterNot(AS.contains(_, a)), ordered.drop(i + 1))
      }
    }

    dfs(AS.empty, toCover, AS.toSeq(allowed).toList)
    minimizeSets(found.toSeq)
  }
}
