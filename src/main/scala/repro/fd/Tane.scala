package repro.fd

import repro.fd.{AttrSet => AS}

/** TANE (Huhtala, Kärkkäinen, Porkka, Toivonen — Computer Journal 1999):
  * [[LatticeSearch]], the level-wise search with stripped partitions,
  * RHS-candidate sets C+ and key pruning, over the whole table with no FD
  * known in advance.
  */
object Tane extends Miner {
  val name = "TANE"

  def mine(table: EncodedTable, deadline: Deadline = Deadline.never): Set[FD] =
    LatticeSearch.mineNew(AS.fromIterable(table.attrIds), new DriverValidator(table), Set.empty[FD], deadline)
}
