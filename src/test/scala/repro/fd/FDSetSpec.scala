package repro.fd

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelper
import repro.fd.{AttrSet => AS}
import repro.fd.Fixtures._

class FDSetSpec extends AnyFunSuite with PropHelper {

  test("FD rejects rhs inside lhs") {
    intercept[IllegalArgumentException](fd(Seq(1, 2), 1))
  }

  test("FD attrs is lhs plus rhs") {
    assert(AS.toSeq(fd(Seq(0, 2), 4).attrs) == Seq(0, 2, 4))
  }

  test("generalizes requires same rhs and subset lhs") {
    assert(fd(Seq(1), 3).generalizes(fd(Seq(1, 2), 3)))
    assert(fd(Seq(1), 3).generalizes(fd(Seq(1), 3)))
    assert(!fd(Seq(1), 3).generalizes(fd(Seq(1, 2), 4)))
    assert(!fd(Seq(1, 2), 3).generalizes(fd(Seq(1), 3)))
  }

  test("closure of empty FD set is identity") {
    assert(FDSet.closure(AS.of(1, 2), Nil) == AS.of(1, 2))
  }

  test("closure applies transitivity") {
    val fds = Seq(fd(Seq(0), 1), fd(Seq(1), 2), fd(Seq(2), 3))
    assert(FDSet.closure(AS.of(0), fds) == AS.of(0, 1, 2, 3))
    assert(FDSet.closure(AS.of(2), fds) == AS.of(2, 3))
  }

  test("closure needs full lhs") {
    val fds = Seq(fd(Seq(0, 1), 2))
    assert(FDSet.closure(AS.of(0), fds) == AS.of(0))
    assert(FDSet.closure(AS.of(0, 1), fds) == AS.of(0, 1, 2))
  }

  test("implies via augmentation and transitivity") {
    val fds = Seq(fd(Seq(0), 1), fd(Seq(1), 2))
    assert(FDSet.implies(fds, fd(Seq(0), 2)))
    assert(FDSet.implies(fds, fd(Seq(0, 3), 2))) // weakening
    assert(!FDSet.implies(fds, fd(Seq(2), 0)))
  }

  test("equivalent detects logically equal covers") {
    val a = Seq(fd(Seq(0), 1), fd(Seq(1), 2))
    val b = Seq(fd(Seq(0), 1), fd(Seq(1), 2), fd(Seq(0), 2)) // adds an implied FD
    assert(FDSet.equivalent(a, b))
    assert(!FDSet.equivalent(a, Seq(fd(Seq(0), 1))))
  }

  test("minimize keeps only lhs-minimal FDs per rhs") {
    val out = FDSet.minimize(Seq(fd(Seq(0), 2), fd(Seq(0, 1), 2), fd(Seq(1), 3)))
    assert(out == Set(fd(Seq(0), 2), fd(Seq(1), 3)))
  }

  test("minimize keeps incomparable FDs with the same rhs") {
    val out = FDSet.minimize(Seq(fd(Seq(0), 2), fd(Seq(1), 2)))
    assert(out.size == 2)
  }

  test("subsumedBy matches any generalization") {
    val known = Seq(fd(Seq(0), 2))
    assert(FDSet.subsumedBy(known, fd(Seq(0, 1), 2)))
    assert(FDSet.subsumedBy(known, fd(Seq(0), 2)))
    assert(!FDSet.subsumedBy(known, fd(Seq(1), 2)))
  }

  test("notImplied reports the diagnostics") {
    val a = Seq(fd(Seq(0), 1))
    assert(FDSet.notImplied(a, Seq(fd(Seq(0), 1), fd(Seq(1), 0))) == Seq(fd(Seq(1), 0)))
  }

  private val genFd: Gen[FD] = for {
    rhs <- Gen.choose(0, 7)
    lhs <- Gen.listOf(Gen.choose(0, 7)).map(l => AS.remove(AS.fromIterable(l), rhs))
  } yield FD(lhs, rhs)
  private val genFds: Gen[List[FD]] = Gen.listOfN(6, genFd)

  test("property: closure is monotone and idempotent") {
    forAllN2(genFds, Gen.listOf(Gen.choose(0, 7)).map(AS.fromIterable), 200) { (fds, x) =>
      val c = FDSet.closure(x, fds)
      assert(AS.subsetOf(x, c))
      assert(FDSet.closure(c, fds) == c)
    }
  }

  test("property: every input FD is implied by the set") {
    forAllN(genFds, 200) { fds =>
      fds.foreach(d => assert(FDSet.implies(fds, d)))
    }
  }

  test("property: minimize output is equivalent under subsumption-implication") {
    forAllN(genFds, 200) { fds =>
      val m = FDSet.minimize(fds)
      // every dropped FD has a generalization kept
      fds.foreach(d => assert(m.exists(_.generalizes(d))))
      // nothing in m is subsumed by a distinct member
      m.foreach(d => assert(!m.exists(o => o != d && o.generalizes(d))))
    }
  }
}
