package repro.fd

import scala.collection.mutable.ArrayBuffer
import repro.fd.{AttrSet => AS}

/** Stripped partition π̂_X: the equivalence classes of rows sharing the same
  * value combination over X, with singleton classes removed (TANE, Huhtala
  * et al. 1999). The pair (error, #classes) drives every FD validity check:
  * `X → a` holds iff `e(π_X) == e(π_{X∪a})` where `e(π) = ||π|| − |π|`.
  */
final class StrippedPartition(val classes: Array[Array[Int]], val nRows: Int) {
  /** ||π|| — number of rows in non-singleton classes. */
  val size: Int = classes.map(_.length).sum
  /** e(π) = ||π|| − |π|; 0 iff X is a (super)key. */
  val error: Int = size - classes.length
  /** |π_X| including stripped singletons. */
  def cardinality: Int = nRows - size + classes.length
  def isKey: Boolean = error == 0
}

object StrippedPartition {

  /** π_∅: one class holding every row (none if there are fewer than two). */
  def whole(nRows: Int): StrippedPartition =
    new StrippedPartition(if (nRows >= 2) Array(Array.range(0, nRows)) else Array.empty, nRows)

  /** Partition of a single encoded column. */
  def ofColumn(col: Array[Int], nRows: Int): StrippedPartition = {
    val groups = new java.util.HashMap[Int, ArrayBuffer[Int]]()
    var r = 0
    while (r < nRows) {
      var g = groups.get(col(r))
      if (g == null) { g = new ArrayBuffer[Int](); groups.put(col(r), g) }
      g += r
      r += 1
    }
    val classes = ArrayBuffer.empty[Array[Int]]
    groups.values.forEach(g => if (g.length >= 2) classes += g.toArray)
    new StrippedPartition(classes.toArray, nRows)
  }

  /** Linear-time stripped-partition product (TANE's probe-table algorithm). */
  def product(l: StrippedPartition, r: StrippedPartition): StrippedPartition = {
    val n = l.nRows
    require(r.nRows == n, "partition arity mismatch")
    val probe = Array.fill(n)(-1)
    var i = 0
    while (i < l.classes.length) {
      val c = l.classes(i)
      var j = 0
      while (j < c.length) { probe(c(j)) = i; j += 1 }
      i += 1
    }
    val bucket = new Array[ArrayBuffer[Int]](l.classes.length)
    val out    = ArrayBuffer.empty[Array[Int]]
    var k = 0
    while (k < r.classes.length) {
      val c = r.classes(k)
      var j = 0
      while (j < c.length) {
        val t = c(j)
        val li = probe(t)
        if (li >= 0) {
          if (bucket(li) == null) bucket(li) = new ArrayBuffer[Int]()
          bucket(li) += t
        }
        j += 1
      }
      j = 0
      while (j < c.length) {
        val t = c(j)
        val li = probe(t)
        if (li >= 0 && bucket(li) != null) {
          if (bucket(li).length >= 2) out += bucket(li).toArray
          bucket(li) = null
        }
        j += 1
      }
      k += 1
    }
    new StrippedPartition(out.toArray, n)
  }
}

/** Memoizing partition store over an [[EncodedTable]]. Attribute sets use
  * *local* column positions of the table. A set's partition is the product
  * of two cached parents (the set less one attribute) where both are held,
  * as TANE builds a level from the one below; else of its one held parent
  * and the missing singleton; else of its singletons. The cache keeps the
  * partition of every set asked for until [[retain]] drops all but the
  * singletons and the named sets; the level-wise [[LatticeSearch]] calls it
  * after each level.
  */
final class PartitionStore(table: EncodedTable) {
  private val cache = new java.util.HashMap[AS.T, StrippedPartition]()

  def apply(attrs: AS.T): StrippedPartition = {
    val hit = cache.get(attrs)
    if (hit != null) return hit
    val p =
      if (AS.isEmpty(attrs)) StrippedPartition.whole(table.nRows)
      else if (AS.size(attrs) == 1) {
        StrippedPartition.ofColumn(table.columns(AS.toSeq(attrs).head), table.nRows)
      } else {
        def parent(a: Int) = cache.get(AS.remove(attrs, a))
        AS.toSeq(attrs).filter(parent(_) != null) match {
          case Seq(a, b, _*) => StrippedPartition.product(parent(a), parent(b))
          case Seq(a)        => StrippedPartition.product(parent(a), apply(AS.single(a)))
          case _             => AS.toSeq(attrs).map(a => apply(AS.single(a))).reduce(StrippedPartition.product)
        }
      }
    cache.put(attrs, p)
    p
  }

  /** Drop every cached partition but the singletons' and those of `keep`. */
  def retain(keep: Iterable[AS.T]): Unit = {
    val kept = keep.toSet
    cache.keySet.removeIf(s => AS.size(s) > 1 && !kept(s))
  }

  /** The attribute sets whose partitions are cached. */
  private[fd] def held: Set[AS.T] = {
    val out = Set.newBuilder[AS.T]
    cache.keySet.forEach(s => out += s)
    out.result()
  }

  /** `lhs → rhs` over local positions, via partition error equality. */
  def holds(lhs: AS.T, rhs: Int): Boolean =
    apply(lhs).error == apply(AS.add(lhs, rhs)).error
}
