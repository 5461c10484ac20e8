package repro.fd

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelper
import repro.fd.{AttrSet => AS}
import repro.fd.Fixtures._

class LatticeSearchSpec extends AnyFunSuite with PropHelper {

  test("with empty known set, mineNew equals the full minimal FD set") {
    val t = table(Seq(Seq(1, "x", "p"), Seq(2, "x", "q"), Seq(3, "y", "p")))
    val got = LatticeSearch.mineNew(AS.universe(3), new DriverValidator(t), Set.empty[FD])
    assert(got == BruteMiner.mine(t))
  }

  test("known FDs are pruned from the output but not re-derived") {
    val t = table(Seq(Seq(1, "x", "p"), Seq(2, "x", "q"), Seq(3, "y", "p")))
    val all   = BruteMiner.mine(t)
    val known = Set(all.head)
    val got   = LatticeSearch.mineNew(AS.universe(3), new DriverValidator(t), known)
    assert(got == all - all.head)
  }

  test("rhsSpace restricts reported RHS attributes") {
    val t = table(Seq(Seq(1, "x", "p"), Seq(2, "x", "q"), Seq(3, "y", "p")))
    val got = LatticeSearch.mineNew(AS.universe(3), new DriverValidator(t),
      Set.empty[FD], rhsSpace = Some(AS.of(1)))
    assert(got.forall(_.rhs == 1))
    assert(got == BruteMiner.mine(t).filter(_.rhs == 1))
  }

  test("candFilter excludes candidates but keeps exploring supersets") {
    val t = table(Seq(Seq(1, "x", "p"), Seq(2, "x", "q"), Seq(3, "y", "p")))
    // Only allow LHSs of size exactly 2 — singleton-lhs FDs are hidden but
    // their supersets are NOT reported either (they are subsumed only by
    // *reported* FDs, so this checks filter+minimality interplay).
    val got = LatticeSearch.mineNew(AS.universe(3), new DriverValidator(t),
      Set.empty[FD], candFilter = (lhs, _) => AS.size(lhs) == 2)
    got.foreach(d => assert(AS.size(d.lhs) == 2))
    // {1,2} is a key, so {1,2}→0 must be found even though {0}'s FDs were hidden.
    assert(got.contains(fd(Seq(1, 2), 0)))
  }

  test("universe restriction hides attributes entirely") {
    val t = table(Seq(Seq(1, "x", "p"), Seq(2, "x", "q"), Seq(3, "y", "p")))
    val got = LatticeSearch.mineNew(AS.of(0, 1), new DriverValidator(t), Set.empty[FD])
    got.foreach(d => assert(AS.subsetOf(d.attrs, AS.of(0, 1))))
    assert(got == BruteMiner.mine(t.project(AS.of(0, 1))))
  }

  private val genTable: Gen[EncodedTable] = for {
    nCols <- Gen.choose(1, 5)
    nRows <- Gen.choose(0, 12)
    cells <- Gen.listOfN(nRows, Gen.listOfN(nCols, Gen.choose(0, 2)))
  } yield table(cells.map(_.map(_.asInstanceOf[Any])))

  test("property: mineNew(∅ known) == BruteMiner on random tables") {
    forAllN(genTable, 120) { t =>
      val got = LatticeSearch.mineNew(AS.universe(t.width), new DriverValidator(t), Set.empty[FD])
      assert(got == BruteMiner.mine(t))
    }
  }

  test("property: an rhsSpace {b} outside the universe A gives BruteMiner's FDs → b on A ∪ {b}") {
    val gen = for {
      t <- genTable.suchThat(_.width >= 2)
      b <- Gen.choose(0, t.width - 1)
      a <- Gen.someOf((0 until t.width).filter(_ != b))
    } yield (t, AS.fromIterable(a), b)
    forAllN(gen, 120) { case (t, a, b) =>
      val got = LatticeSearch.mineNew(a, new DriverValidator(t), Set.empty[FD],
        rhsSpace = Some(AS.single(b)))
      assert(got == BruteMiner.mine(t.project(AS.add(a, b))).filter(_.rhs == b))
    }
  }

  test("property: an rhsSpace B of several attributes outside the universe A gives BruteMiner's FDs A' → b, A' ⊆ A, b ∈ B") {
    val gen = for {
      t <- genTable.suchThat(_.width >= 3)
      b <- Gen.atLeastOne(0 until t.width).suchThat(b => b.size >= 2 && b.size < t.width)
      a <- Gen.someOf((0 until t.width).filterNot(b.contains))
    } yield (t, AS.fromIterable(a), AS.fromIterable(b))
    forAllN(gen, 120) { case (t, a, b) =>
      val got = LatticeSearch.mineNew(a, new DriverValidator(t), Set.empty[FD], rhsSpace = Some(b))
      assert(got == BruteMiner.mine(t).filter(d => AS.subsetOf(d.lhs, a) && AS.contains(b, d.rhs)),
        s"universe=${AS.toSeq(a)} rhsSpace=${AS.toSeq(b)}")
    }
  }

  test("property: known ∪ mineNew == full set, and outputs are disjoint from known") {
    forAllN(genTable, 120) { t =>
      val all = BruteMiner.mine(t)
      if (all.nonEmpty) {
        // Use a random-ish half of the FDs as "known".
        val known = all.toSeq.sortBy(_.hashCode).take(all.size / 2).toSet
        val got   = LatticeSearch.mineNew(AS.universe(t.width), new DriverValidator(t), known)
        assert((known ++ got) == all,
          s"missing=${all -- known -- got} extra=${got -- all}")
        assert(got.intersect(known).isEmpty)
      }
    }
  }

  test("property: a random half of the FDs known and a random rhsSpace give the rest in rhsSpace") {
    val gen = for {
      t    <- genTable
      rhs  <- Gen.someOf(0 until t.width)
      pick <- Gen.listOfN(64, Gen.oneOf(true, false))
    } yield (t, AS.fromIterable(rhs), pick)
    forAllN(gen, 200) { case (t, rhs, pick) =>
      val all   = BruteMiner.mine(t)
      val known = all.toSeq.sortBy(d => (d.rhs, d.lhs)).zip(pick).collect { case (d, true) => d }.toSet
      val got   = LatticeSearch.mineNew(AS.universe(t.width), new DriverValidator(t), known,
        rhsSpace = Some(rhs))
      assert(got == all.filter(d => AS.contains(rhs, d.rhs)) -- known,
        s"known=$known rhsSpace=${AS.toSeq(rhs)}")
    }
  }

  test("a search holds the singletons' partitions and at most two levels of the others") {
    val t = table((0 until 60).map { r =>
      Seq[Any](r % 2, r % 3, (r / 2) % 3, r % 5, (r / 3) % 4, (r * 7) % 6, (r / 5) % 2,
        (r * 11) % 7, (r / 7) % 3)
    })
    val all  = BruteMiner.mine(t)
    val half = all.toSeq.sortBy(d => (d.rhs, d.lhs)).zipWithIndex.collect { case (d, i) if i % 2 == 0 => d }.toSet
    val wide: (AS.T, Int) => Boolean = (lhs, _) => AS.size(lhs) >= 3
    // With nothing known every node checks candidates. With half the FDs
    // known some nodes check none; with LHSs of three or more attributes
    // only, nothing is checked below level 4, so no partition is held there.
    Seq((Set.empty[FD], None), (half, None), (Set.empty[FD], Some(wide))).foreach { case (known, filter) =>
      val driver = new DriverValidator(t)
      val held   = mutable.ArrayBuffer.empty[Set[AS.T]]
      val probe  = new FDValidator {
        val nRows: Long = driver.nRows
        def cardinality(attrs: AS.T): Long = {
          val c = driver.cardinality(attrs)
          held += driver.store.held
          c
        }
        override def retain(sets: Iterable[AS.T]): Unit = driver.retain(sets)
      }
      val got = LatticeSearch.mineNew(AS.universe(t.width), probe, known,
        candFilter = filter.getOrElse((_, _) => true))
      if (filter.isEmpty) assert(got == all -- known)
      else assert(got.nonEmpty && got.forall(d => AS.size(d.lhs) >= 3 && all.exists(_.generalizes(d))))
      val levels = held.map(_.map(AS.size).filter(_ > 1))
      assert(levels.flatten.max >= 4, "the search should reach level 4")
      levels.foreach(ls => assert(ls.isEmpty || ls.max - ls.min <= 1, s"levels held at once: $ls"))
      assert(driver.store.held.forall(AS.size(_) <= 1), "a finished search keeps only the singletons")
    }
  }
}
