package repro.fd

import org.scalatest.funsuite.AnyFunSuite
import repro.fd.{AttrSet => AS}

class LazyValidatorSpec extends AnyFunSuite {

  // Column 0 determines column 1; {0, 2} and {1, 2} are the minimal keys.
  private def table = EncodedTable.fromRows(
    Seq(Seq[Any]("x", 1, "p"), Seq[Any]("x", 1, "q"), Seq[Any]("y", 2, "p")), IndexedSeq(0, 1, 2))

  /** A validator over `table` with `known` cardinalities, and whether it built. */
  private def lazyOver(known: Map[AS.T, Long] = Map.empty): (LazyValidator, () => Boolean) = {
    var built = false
    val v = new LazyValidator(table.nRows.toLong, known, () => { built = true; new DriverValidator(table) })
    (v, () => built)
  }

  test("does not build the underlying validator until a check runs") {
    val (v, built) = lazyOver()
    assert(!built() && !v.materialized)
    assert(v.nRows == 3 && !built())
    assert(v.holds(AS.of(0), 1))
    assert(built() && v.materialized)
  }

  test("builds only once across checks") {
    var builds = 0
    val v = new LazyValidator(table.nRows.toLong, Map.empty, () => { builds += 1; new DriverValidator(table) })
    v.holds(AS.of(0), 1); v.cardinality(AS.of(1)); v.isKey(AS.of(0, 1))
    assert(builds == 1)
  }

  test("delegates all checks faithfully") {
    val (v, _) = lazyOver()
    val d = new DriverValidator(table)
    assert(v.nRows == d.nRows)
    AS.allSubsets(AS.universe(3)).foreach { s =>
      assert(v.cardinality(s) == d.cardinality(s))
    }
    assert(v.holds(AS.of(0), 1) == d.holds(AS.of(0), 1))
    assert(v.holds(AS.of(1), 0) == d.holds(AS.of(1), 0))
    assert(v.holds(AS.of(0), 2) == d.holds(AS.of(0), 2))
  }

  test("answers a seeded cardinality without a build") {
    val (v, built) = lazyOver(Map(AS.of(0) -> 2L, AS.of(0, 1) -> 2L))
    assert(v.holds(AS.of(0), 1))
    assert(!built() && !v.materialized)
  }

  test("answers a superset of an answered key with nRows, without a build") {
    val (v, built) = lazyOver(Map(AS.of(0, 2) -> 3L))
    assert(v.cardinality(AS.of(0, 1, 2)) == 3)
    assert(v.isKey(AS.of(0, 1, 2)))
    assert(!built())
  }

  test("answers a superset of a key it counted with nRows, without counting again") {
    var counted = List.empty[AS.T]
    val v = new LazyValidator(table.nRows.toLong, Map.empty, () => new FDValidator {
      private val d = new DriverValidator(table)
      def nRows: Long = d.nRows
      def cardinality(attrs: AS.T): Long = { counted ::= attrs; d.cardinality(attrs) }
    })
    assert(v.isKey(AS.of(1, 2)))
    assert(v.isKey(AS.of(0, 1, 2)))
    assert(counted == List(AS.of(1, 2)))
  }

  test("answers the empty set without a build") {
    val (v, built) = lazyOver()
    assert(v.cardinality(AS.empty) == 1 && !v.isKey(AS.empty))
    assert(!built() && !v.materialized)
    val empty = new LazyValidator(0L, Map.empty, () => sys.error("built"))
    assert(empty.cardinality(AS.empty) == 0 && empty.isKey(AS.empty))
  }

  test("builds for a set with no known key below it") {
    val (v, built) = lazyOver(Map(AS.of(0) -> 2L, AS.of(0, 2) -> 3L))
    assert(v.cardinality(AS.of(1, 2)) == 3)
    assert(built() && v.materialized)
  }
}
