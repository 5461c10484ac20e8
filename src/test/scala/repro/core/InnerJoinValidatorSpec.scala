package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.InFine.{InnerJoinValidator, Side}
import repro.fd.{AttrSet => AS, _}

/** The checks of Algorithms 4–5 that one side of an inner join decides are
  * answered from that side's FDs (Lemma 2, twin equality), without building
  * the join's validator, and agree with the join's data.
  */
class InnerJoinValidatorSpec extends AnyFunSuite {

  // l(a0, a1, a2) ⋈_{a0 = a3} r(a3, a4). Key 3 of l and key 4 of r dangle.
  // On l, a0 → a1 holds; on l ⋉ r, a1 → a0 also holds (upstaged).
  private val lRows = Seq(Seq[Any](1, "p", "u"), Seq[Any](1, "p", "v"), Seq[Any](2, "q", "u"), Seq[Any](3, "q", "w"))
  private val rRows = Seq(Seq[Any](1, "x"), Seq[Any](2, "x"), Seq[Any](2, "y"), Seq[Any](4, "z"))
  private val joined = for (l <- lRows; r <- rRows if l.head == r.head) yield l ++ r
  private val (lIds, rIds) = (IndexedSeq(0, 1, 2), IndexedSeq(3, 4))

  /** A side's own FDs plus those of its semijoin, as Algorithm 3 leaves them. */
  private def side(rows: Seq[Seq[Any]], ids: IndexedSeq[Int], semi: Seq[Seq[Any]] => Seq[Seq[Any]]): Side =
    Side(AS.fromIterable(ids), AS.single(ids.head),
      Tane.mine(EncodedTable.fromRows(rows, ids)) ++ Tane.mine(EncodedTable.fromRows(semi(rows), ids)))
  private val left  = side(lRows, lIds, _.filter(l => rRows.exists(_.head == l.head)))
  private val right = side(rRows, rIds, _.filter(r => lRows.exists(_.head == r.head)))

  private val truth = new DriverValidator(EncodedTable.fromRows(joined, lIds ++ rIds))

  /** The decorator over a lazy join validator, and whether that was built. */
  private def decorated(twins: Seq[(Int, Int)], aV: AS.T): (FDValidator, () => Boolean) = {
    var built = false
    val v = new LazyValidator(truth.nRows, Map.empty, () => { built = true; truth })
    (new InnerJoinValidator(v, left, right, twins, aV), () => built)
  }

  test("one-side and twin-folded checks are answered from the sides' FDs, never building the join") {
    assert(!Tane.mine(EncodedTable.fromRows(lRows, lIds)).contains(FD(AS.of(1), 0)), "a1 → a0 is upstaged")
    val (v, built) = decorated(Seq(0 -> 3), AS.universe(5))
    // Sets inside one side, or inside one once a3 folds into a0 or a0 into a3.
    val decided = Seq(AS.of(0, 1, 2, 3), AS.of(0, 3, 4))
    for (within <- decided; b <- AS.toSeq(within); lhs <- AS.allSubsets(AS.remove(within, b)))
      assert(v.holds(lhs, b) == truth.holds(lhs, b), s"${AS.toSeq(lhs)} -> $b")
    assert(v.holds(AS.of(1), 3), "a1 → a3 folds into the upstaged a1 → a0")
    assert(!v.holds(AS.empty, 4) && !v.holds(AS.of(3), 4))
    // {a1}, {a4} and {a1, a3} miss an attribute of their side: no keys.
    Seq(AS.of(1), AS.of(4), AS.of(1, 3)).foreach { x =>
      assert(!v.isKey(x) && !truth.isKey(x), AS.toSeq(x))
    }
    assert(!built())
    // a2 → a4 spans both sides: only the join's rows decide it.
    assert(v.holds(AS.of(2), 4) == truth.holds(AS.of(2), 4))
    assert(built())
  }

  test("a set whose closure covers its side goes to the join: a side's key may repeat there") {
    val (v, built) = decorated(Seq(0 -> 3), AS.universe(5))
    // {a0, a2} is a key of l ⋉ r, but key 2 has two partners in r.
    assert(v.isKey(AS.of(0, 2)) == truth.isKey(AS.of(0, 2)))
    assert(built())
  }

  test("with a twin projected away, nothing folds and cross-side checks go to the join") {
    // a0 is not in A_V, so InFine passes no twins; a1 → a3 spans both sides.
    val (v, built) = decorated(Nil, AS.remove(AS.universe(5), 0))
    assert(v.holds(AS.of(4), 3) == truth.holds(AS.of(4), 3) && !built())
    assert(v.holds(AS.of(1), 3) == truth.holds(AS.of(1), 3))
    assert(built())
  }
}
