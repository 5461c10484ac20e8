package repro.fd

import scala.collection.mutable
import repro.fd.{AttrSet => AS}

/** TANE (Huhtala, Kärkkäinen, Porkka, Toivonen — Computer Journal 1999).
  *
  * Level-wise search over the attribute-set lattice with stripped partitions,
  * RHS-candidate sets C+ and key pruning. Memory holds two lattice levels at
  * a time, matching the paper's O(C(k, k/2)) bound discussion.
  */
object Tane extends Miner {
  val name = "TANE"

  def mine(table: EncodedTable, deadline: Deadline = Deadline.never): Set[FD] = {
    val k = table.width
    if (k == 0) return Set.empty
    val universe = AS.universe(k)
    val out      = mutable.Set.empty[FD]

    // Level 0 seeds: C+(∅) = R and π_∅ for the level-1 check.
    var prevCp: mutable.Map[AS.T, AS.T] = mutable.Map(AS.empty -> universe)
    var prevPart: mutable.Map[AS.T, StrippedPartition] =
      mutable.Map(AS.empty -> StrippedPartition.whole(table.nRows))

    // Level 1.
    var level: IndexedSeq[AS.T] = (0 until k).map(AS.single)
    var parts: mutable.Map[AS.T, StrippedPartition] = mutable.Map.from(
      (0 until k).map(a => AS.single(a) -> StrippedPartition.ofColumn(table.columns(a), table.nRows))
    )

    while (level.nonEmpty) {
      deadline.check(name)
      val cp = mutable.Map.empty[AS.T, AS.T]

      // C+(X) = ∩_{a ∈ X} C+(X \ {a}); a missing subset means it was pruned,
      // contributing the empty candidate set.
      level.foreach { x =>
        var acc = universe
        AS.foreach(x) { a =>
          acc &= prevCp.getOrElse(AS.remove(x, a), AS.empty)
        }
        cp(x) = acc
      }

      // compute_dependencies
      level.foreach { x =>
        AS.foreach(AS.intersect(x, cp(x))) { a =>
          val xa = AS.remove(x, a)
          val valid = parts(x).error == prevPart(xa).error
          if (valid) {
            out += FD(xa, a)
            cp(x) = AS.remove(cp(x), a)
            cp(x) = AS.diff(cp(x), AS.diff(universe, x))
          }
        }
      }

      // prune. Empty C+ kills a branch outright (TANE Lemma 3). For
      // superkeys we diverge from the paper's pseudo-code: its minimality
      // test consults C+ sets of same-level siblings that may never have
      // been generated (missing-as-empty silently drops minimal FDs such as
      // {B,C}→A when A alone is a key). Instead we emit X→c for *every*
      // c ∉ X and delete X. Over-emitted non-minimal FDs are removed by the
      // final minimize: if W ⊂ X with W→c valid and minimal, then either
      // W ∪ {c} is generated normally (W→c found by compute_dependencies),
      // or its generation was blocked by a deleted superkey S = S'∪{c} ⊆
      // W∪{c} — in which case closure(W) ⊇ S'∪{c} makes W itself a
      // partition superkey (no key exists at all when rows duplicate, and
      // then nothing is deleted), so W→c is emitted at W's own deletion.
      val kept = level.filter { x =>
        if (AS.isEmpty(cp(x))) false
        else if (parts(x).isKey) {
          AS.foreach(AS.diff(universe, x)) { c =>
            val d = FD(x, c)
            if (!FDSet.subsumedBy(out, d)) out += d
          }
          false
        } else true
      }

      // generate_next_level: apriori join on shared (|X|-1)-prefix.
      val keptSet   = kept.toSet
      val byPrefix  = kept.groupBy { x =>
        val top = 63 - java.lang.Long.numberOfLeadingZeros(x)
        AS.remove(x, top.toInt)
      }
      val nextParts = mutable.Map.empty[AS.T, StrippedPartition]
      val next      = mutable.ArrayBuffer.empty[AS.T]
      byPrefix.values.foreach { group =>
        val sorted = group.sortBy(x => 63 - java.lang.Long.numberOfLeadingZeros(x))
        for (i <- sorted.indices; j <- (i + 1) until sorted.size) {
          val z = AS.union(sorted(i), sorted(j))
          if (AS.toSeq(z).forall(a => keptSet.contains(AS.remove(z, a)))) {
            next += z
            nextParts(z) = StrippedPartition.product(parts(sorted(i)), parts(sorted(j)))
          }
        }
      }

      prevCp = cp
      prevPart = parts
      level = next.toIndexedSeq
      parts = nextParts
    }

    FDSet.minimize(out).map(table.globalize)
  }
}
