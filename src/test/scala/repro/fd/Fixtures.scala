package repro.fd

import repro.fd.{AttrSet => AS}

/** Literal instances and FDs shared by the miner and lattice tests. */
object Fixtures {

  /** `rows` encoded, column `i` as attribute `i`. */
  def table(rows: Seq[Seq[Any]]): EncodedTable =
    EncodedTable.fromRows(rows, IndexedSeq.tabulate(rows.headOption.map(_.size).getOrElse(0))(identity))

  /** `lhs → rhs`. */
  def fd(lhs: Seq[Int], rhs: Int): FD = FD(AS.fromIterable(lhs), rhs)
}
