package repro.fd

/** Attribute sets as Long bitmasks.
  *
  * Every view in the workloads has at most 64 global attributes, so a single
  * Long suffices; set algebra then costs one ALU op, which matters inside the
  * level-wise lattice search where millions of subset tests run.
  */
object AttrSet {
  type T = Long

  val empty: T = 0L

  /** Most attributes a set can hold: the bits of one Long. */
  final val capacity = 64

  def single(i: Int): T = {
    require(i >= 0 && i < capacity, s"attribute index out of range: $i")
    1L << i
  }

  def of(is: Int*): T = is.foldLeft(empty)((s, i) => s | single(i))

  def fromIterable(is: Iterable[Int]): T = is.foldLeft(empty)((s, i) => s | single(i))

  /** All attribute indices below `n` set. */
  def universe(n: Int): T = if (n == 64) -1L else (1L << n) - 1

  def contains(s: T, i: Int): Boolean = (s & single(i)) != 0
  def add(s: T, i: Int): T            = s | single(i)
  def remove(s: T, i: Int): T         = s & ~single(i)
  def union(a: T, b: T): T            = a | b
  def intersect(a: T, b: T): T        = a & b
  def diff(a: T, b: T): T             = a & ~b
  def subsetOf(a: T, b: T): Boolean   = (a & ~b) == 0
  def properSubsetOf(a: T, b: T): Boolean = a != b && subsetOf(a, b)
  def isEmpty(s: T): Boolean          = s == 0L
  def size(s: T): Int                 = java.lang.Long.bitCount(s)

  /** Indices in ascending order. */
  def toSeq(s: T): IndexedSeq[Int] = {
    val b = IndexedSeq.newBuilder[Int]
    var rest = s
    while (rest != 0) {
      val i = java.lang.Long.numberOfTrailingZeros(rest)
      b += i
      rest &= rest - 1
    }
    b.result()
  }

  def foreach(s: T)(f: Int => Unit): Unit = {
    var rest = s
    while (rest != 0) {
      f(java.lang.Long.numberOfTrailingZeros(rest))
      rest &= rest - 1
    }
  }

  /** All subsets of `s`, including empty and `s` itself. 2^|s| entries. */
  def allSubsets(s: T): IndexedSeq[T] = {
    val b = IndexedSeq.newBuilder[T]
    var sub = s
    while (true) {
      b += sub
      if (sub == 0) return b.result()
      sub = (sub - 1) & s
    }
    b.result() // unreachable
  }

  def render(s: T, names: Int => String): String =
    toSeq(s).map(names).mkString("{", ",", "}")
}
