package repro.fd

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelper
import repro.fd.{AttrSet => AS}

class AttrSetSpec extends AnyFunSuite with PropHelper {

  test("empty set has size 0 and contains nothing") {
    assert(AS.size(AS.empty) == 0)
    (0 until 64).foreach(i => assert(!AS.contains(AS.empty, i)))
  }

  test("single sets one bit") {
    assert(AS.size(AS.single(0)) == 1)
    assert(AS.size(AS.single(63)) == 1)
    assert(AS.contains(AS.single(5), 5))
    assert(!AS.contains(AS.single(5), 4))
  }

  test("single rejects out-of-range index") {
    intercept[IllegalArgumentException](AS.single(64))
    intercept[IllegalArgumentException](AS.single(-1))
  }

  test("of builds from varargs") {
    val s = AS.of(1, 3, 5)
    assert(AS.toSeq(s) == Seq(1, 3, 5))
  }

  test("universe(n) contains exactly 0 until n") {
    assert(AS.toSeq(AS.universe(4)) == Seq(0, 1, 2, 3))
    assert(AS.size(AS.universe(0)) == 0)
    assert(AS.size(AS.universe(64)) == 64)
  }

  test("add and remove round-trip") {
    val s = AS.of(2, 7)
    assert(AS.remove(AS.add(s, 4), 4) == s)
    assert(AS.add(s, 2) == s)
    assert(AS.remove(s, 9) == s)
  }

  test("union, intersect, diff behave as set algebra") {
    val a = AS.of(1, 2, 3)
    val b = AS.of(3, 4)
    assert(AS.toSeq(AS.union(a, b)) == Seq(1, 2, 3, 4))
    assert(AS.toSeq(AS.intersect(a, b)) == Seq(3))
    assert(AS.toSeq(AS.diff(a, b)) == Seq(1, 2))
  }

  test("subsetOf and properSubsetOf") {
    assert(AS.subsetOf(AS.of(1), AS.of(1, 2)))
    assert(AS.subsetOf(AS.of(1, 2), AS.of(1, 2)))
    assert(!AS.properSubsetOf(AS.of(1, 2), AS.of(1, 2)))
    assert(AS.properSubsetOf(AS.empty, AS.of(0)))
    assert(!AS.subsetOf(AS.of(3), AS.of(1, 2)))
  }

  test("allSubsets enumerates the powerset") {
    val subs = AS.allSubsets(AS.of(0, 2))
    assert(subs.toSet == Set(AS.empty, AS.of(0), AS.of(2), AS.of(0, 2)))
    assert(AS.allSubsets(AS.of(1, 2, 3)).size == 8)
  }

  test("foreach visits each index once, ascending") {
    var seen = List.empty[Int]
    AS.foreach(AS.of(9, 1, 33))(i => seen :+= i)
    assert(seen == List(1, 9, 33))
  }

  test("render uses the name function") {
    assert(AS.render(AS.of(0, 2), i => s"c$i") == "{c0,c2}")
  }

  private val genSet: Gen[AS.T] = Gen.listOf(Gen.choose(0, 63)).map(AS.fromIterable)

  test("property: toSeq/fromIterable round-trip") {
    forAllN(genSet) { s => assert(AS.fromIterable(AS.toSeq(s)) == s) }
  }

  test("property: size equals toSeq length") {
    forAllN(genSet) { s => assert(AS.size(s) == AS.toSeq(s).size) }
  }

  test("property: diff and intersect partition a set") {
    forAllN2(genSet, genSet) { (a, b) =>
      assert(AS.union(AS.diff(a, b), AS.intersect(a, b)) == a)
    }
  }

  test("property: subsetOf consistent with toSeq subsets") {
    forAllN2(genSet, genSet) { (a, b) =>
      assert(AS.subsetOf(a, b) == AS.toSeq(a).toSet.subsetOf(AS.toSeq(b).toSet))
    }
  }
}
