package repro.fd

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelper
import repro.fd.{AttrSet => AS}
import repro.fd.Fixtures._

class PartitionsSpec extends AnyFunSuite with PropHelper {

  test("ofColumn strips singletons") {
    val p = StrippedPartition.ofColumn(Array(0, 0, 1, 2, 2, 2), 6)
    assert(p.classes.map(_.toSet).toSet == Set(Set(0, 1), Set(3, 4, 5)))
    assert(p.size == 5)
    assert(p.error == 3)
    assert(p.cardinality == 3)
  }

  test("key column has empty stripped partition") {
    val p = StrippedPartition.ofColumn(Array(0, 1, 2), 3)
    assert(p.classes.isEmpty && p.isKey && p.cardinality == 3)
  }

  test("product refines both partitions") {
    // col a: x x y y ; col b: 1 2 1 1
    val pa = StrippedPartition.ofColumn(Array(0, 0, 1, 1), 4)
    val pb = StrippedPartition.ofColumn(Array(0, 1, 0, 0), 4)
    val prod = StrippedPartition.product(pa, pb)
    assert(prod.classes.map(_.toSet).toSet == Set(Set(2, 3)))
  }

  test("PartitionStore holds detects valid and invalid FDs") {
    val t = table(Seq(
      Seq("x", 1, "p"),
      Seq("x", 1, "p"),
      Seq("y", 2, "p"),
      Seq("y", 3, "q"),
    ))
    val store = new PartitionStore(t)
    assert(store.holds(AS.of(1), 0))  // b -> a
    assert(!store.holds(AS.of(0), 1)) // a -/-> b (y maps to 2 and 3)
    assert(store.holds(AS.of(0, 1), 2))
    assert(!store.holds(AS.empty, 0))
    assert(store.holds(AS.empty, 2) == false)
  }

  test("empty lhs FD holds iff column constant") {
    val t = table(Seq(Seq("c", 1), Seq("c", 2)))
    val store = new PartitionStore(t)
    assert(store.holds(AS.empty, 0))
    assert(!store.holds(AS.empty, 1))
  }

  private val genTable: Gen[EncodedTable] = for {
    nCols <- Gen.choose(1, 4)
    nRows <- Gen.choose(0, 12)
    cells <- Gen.listOfN(nRows, Gen.listOfN(nCols, Gen.choose(0, 2)))
  } yield table(cells.map(_.map(_.asInstanceOf[Any])))

  test("property: partition cardinality equals brute-force distinct count") {
    forAllN(genTable, 150) { t =>
      val store = new PartitionStore(t)
      AS.allSubsets(AS.universe(t.width)).filter(s => !AS.isEmpty(s)).foreach { s =>
        assert(store(s).cardinality == t.cardinality(s), s"attrs ${AS.toSeq(s)}")
      }
    }
  }

  test("property: product is order-insensitive on error") {
    forAllN(genTable, 150) { t =>
      if (t.width >= 2 && t.nRows > 0) {
        val a = StrippedPartition.ofColumn(t.columns(0), t.nRows)
        val b = StrippedPartition.ofColumn(t.columns(1), t.nRows)
        assert(StrippedPartition.product(a, b).error == StrippedPartition.product(b, a).error)
      }
    }
  }

  test("property: holds agrees with definitional pairwise check") {
    forAllN(genTable, 150) { t =>
      if (t.nRows > 0) {
        val store = new PartitionStore(t)
        for {
          rhs <- 0 until t.width
          lhs <- AS.allSubsets(AS.remove(AS.universe(t.width), rhs))
        } {
          val pairsOk = (0 until t.nRows).forall { i =>
            (i + 1 until t.nRows).forall { j =>
              val agreeLhs = AS.toSeq(lhs).forall(c => t.columns(c)(i) == t.columns(c)(j))
              !agreeLhs || t.columns(rhs)(i) == t.columns(rhs)(j)
            }
          }
          assert(store.holds(lhs, rhs) == pairsOk,
            s"lhs=${AS.toSeq(lhs)} rhs=$rhs rows=${t.nRows}")
        }
      }
    }
  }
}
