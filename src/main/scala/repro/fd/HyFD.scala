package repro.fd

import scala.collection.mutable
import repro.fd.{AttrSet => AS}

/** HyFD-style hybrid miner (Papenbrock & Naumann, SIGMOD 2016).
  *
  * Phase 1 (tuple-oriented): sample tuple pairs that are likely to agree —
  * neighbours within each single-attribute partition class — and collect
  * their difference sets (the negative cover).
  * Phase 2 (attribute-oriented): induce the most-general candidate FDs
  * consistent with the negative cover, then validate them against the data
  * with stripped partitions; every violation found is fed back into the
  * negative cover and the candidates are re-specialized, until all
  * candidates validate.
  */
object HyFD extends Miner {
  val name = "HyFD"

  def mine(table: EncodedTable, deadline: Deadline = Deadline.never): Set[FD] = {
    val k = table.width
    if (k == 0) return Set.empty
    val n        = table.nRows
    val universe = AS.universe(k)
    val store    = new PartitionStore(table)

    // ---- Phase 1: sampled negative cover -------------------------------
    val negative = mutable.Set.empty[AS.T]
    var c = 0
    while (c < k) {
      val p = StrippedPartition.ofColumn(table.columns(c), n)
      p.classes.foreach { cls =>
        var i = 0
        while (i + 1 < cls.length) { // neighbours only: linear sample
          val d = table.diff(cls(i), cls(i + 1))
          if (!AS.isEmpty(d)) negative += d
          i += 1
        }
      }
      c += 1
    }
    // Unsampled pairs (including fully-disagreeing ones) are handled by the
    // validation loop: too-general candidates fail validation and the
    // witnessing pair's difference set re-specializes them.

    // ---- Phase 2: induction + validation loop --------------------------
    // candidates(a) = antichain of most-general LHSs for RHS a consistent
    // with the negative cover seen so far.
    val candidates = Array.fill(k)(mutable.Set[AS.T](AS.empty))

    def specialize(rhs: Int, diff: AS.T): Unit = {
      // A pair differing exactly on `diff` violates X→rhs whenever rhs ∈ diff
      // and X avoids diff\{rhs} (the pair then agrees on all of X).
      if (!AS.contains(diff, rhs)) return
      val agree = AS.diff(universe, diff)
      val cand  = candidates(rhs)
      val violated = cand.filter(x => AS.subsetOf(x, agree)).toSeq
      violated.foreach { x =>
        cand -= x
        AS.foreach(AS.diff(diff, AS.single(rhs))) { b =>
          val nx = AS.add(x, b)
          if (!cand.exists(e => AS.subsetOf(e, nx))) {
            // nx may subsume existing more-specific entries.
            val shadowed = cand.filter(e => AS.properSubsetOf(nx, e))
            cand --= shadowed
            cand += nx
          }
        }
      }
    }

    (0 until k).foreach(a => negative.foreach(d => specialize(a, d)))

    // Validate candidates level-wise; violations refine the negative cover.
    var settled = false
    while (!settled) {
      deadline.check(name)
      settled = true
      var rhs = 0
      while (rhs < k) {
        val pending = candidates(rhs).toSeq.sortBy(AS.size)
        pending.foreach { lhs =>
          if (candidates(rhs).contains(lhs) && !store.holds(lhs, rhs)) {
            settled = false
            violatingPair(store, table, lhs, rhs).foreach { case (t, u) =>
              val d = table.diff(t, u)
              (0 until k).foreach(a => specialize(a, d))
            }
          }
        }
        rhs += 1
      }
    }

    val out = for {
      rhs <- (0 until k).iterator
      lhs <- candidates(rhs).iterator
    } yield table.globalize(FD(lhs, rhs))
    FDSet.minimize(out.toSet)
  }

  /** A concrete tuple pair witnessing that `lhs → rhs` fails. */
  private def violatingPair(store: PartitionStore, table: EncodedTable,
                            lhs: AS.T, rhs: Int): Option[(Int, Int)] = {
    val rhsCol = table.columns(rhs)
    val p      = store(lhs)
    p.classes.iterator.flatMap { cls =>
      val first = cls(0)
      cls.iterator.drop(1).find(t => rhsCol(t) != rhsCol(first)).map(t => (first, t))
    }.nextOption()
  }
}
