package repro.fd

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.{DataFrame, Row}
import repro.fd.{AttrSet => AS}

/** Dictionary-encoded, column-major snapshot of a relational instance.
  *
  * FD validity only depends on value *equality*, so each column is encoded
  * to dense Int codes (null is one more ordinary code — the paper is
  * null-semantics agnostic, and "null == null" matches Spark's `distinct`
  * and the DuckDB oracle). Miners operate over local column positions
  * `0..width-1`; `attrIds` maps positions to the view's global attribute
  * indices so mined FDs can be globalized.
  *
  * @param columns column-major codes, `columns(c)(r)`
  * @param attrIds global attribute index per local column position
  */
final class EncodedTable(val columns: Array[Array[Int]], val attrIds: IndexedSeq[Int]) {
  require(columns.length == attrIds.size, "one attrId per column")
  val width: Int  = columns.length
  val nRows: Int  = if (width == 0) 0 else columns(0).length

  private lazy val localOf: Map[Int, Int] = attrIds.zipWithIndex.toMap

  def local(globalAttr: Int): Int =
    localOf.getOrElse(globalAttr, sys.error(s"attribute $globalAttr not in table (has $attrIds)"))

  def globalize(d: FD): FD =
    FD(AS.fromIterable(AS.toSeq(d.lhs).map(attrIds)), attrIds(d.rhs))

  def localize(d: FD): FD =
    FD(AS.fromIterable(AS.toSeq(d.lhs).map(local)), local(d.rhs))

  /** Restrict to the columns whose global ids are in `globalAttrs`. */
  def project(globalAttrs: AS.T): EncodedTable = {
    val keep = attrIds.zipWithIndex.collect { case (g, i) if AS.contains(globalAttrs, g) => i }
    new EncodedTable(keep.map(columns).toArray, keep.map(attrIds))
  }

  /** Local columns on which rows `t` and `u` differ: the complement of
    * their agree set, as FastFDs and HyFD use it.
    */
  def diff(t: Int, u: Int): AS.T = {
    var d = AS.empty
    var c = 0
    while (c < width) {
      if (columns(c)(t) != columns(c)(u)) d = AS.add(d, c)
      c += 1
    }
    d
  }

  /** Distinct count of the value combinations over local columns `attrs`. */
  def cardinality(attrs: AS.T): Int = {
    if (AS.isEmpty(attrs)) return math.min(nRows, 1)
    val cols = AS.toSeq(attrs).map(columns)
    val seen = new java.util.HashSet[Seq[Int]]()
    var r = 0
    while (r < nRows) {
      seen.add(cols.map(_(r)))
      r += 1
    }
    seen.size
  }
}

object EncodedTable {

  /** Value → dense code map of the dictionary encoding. One dictionary can
    * encode several columns, so that equal values in any of them get one
    * code: join attributes share one per equivalence class, and the driver
    * joins their instances on codes. Not thread-safe: one thread encodes
    * through it at a time.
    */
  final class Dictionary {
    private val codes = new java.util.HashMap[Any, Integer]()
    /** The code of `v`, given to it now if it has none yet. */
    def encode(v: Any): Int = {
      var code = codes.get(v)
      if (code == null) { code = codes.size(); codes.put(v, code) }
      code
    }
    /** The code of `v`, or -1 if no encoded cell held it. */
    def codeOf(v: Any): Int = { val c = codes.get(v); if (c == null) -1 else c }
  }

  /** Collect `df` and dictionary-encode it, whatever its size: the caller
    * decides what fits on the driver. Both pipelines collect only an
    * instance that `DriverEval` cannot evaluate from the base relations it
    * holds: `Validator.forDataFrame` when the instance's checks run on the
    * driver (at most the collect threshold rows; larger ones go to
    * [[SparkValidator]]), the straightforward pipeline for its view.
    */
  def fromDataFrame(df: DataFrame, attrIds: IndexedSeq[Int]): EncodedTable = {
    val width = df.columns.length
    require(width == attrIds.size,
      s"schema mismatch: df has $width cols, ${attrIds.size} attr ids given")
    fromCollected(df.collect(), attrIds, _ => new Dictionary)
  }

  /** Encode column `c` of collected `rows` as attribute `attrIds(c)` through
    * `dictionary(c)`, called once per column; columns past `attrIds` are
    * left out.
    */
  def fromCollected(rows: Array[Row], attrIds: IndexedSeq[Int],
                    dictionary: Int => Dictionary): EncodedTable =
    encode(ArraySeq.unsafeWrapArray(rows), attrIds, dictionary)(_.get(_))

  /** Row-major literal construction for tests. */
  def fromRows(rows: Seq[Seq[Any]], attrIds: IndexedSeq[Int]): EncodedTable = {
    require(rows.forall(_.size == attrIds.size))
    encode(rows.toIndexedSeq, attrIds, _ => new Dictionary)(_(_))
  }

  /** The dictionary loop: per column, each distinct value (null included,
    * hashed like any other) gets the next dense code of its dictionary.
    */
  private def encode[R](rows: IndexedSeq[R], attrIds: IndexedSeq[Int], dictionary: Int => Dictionary)
                       (cell: (R, Int) => Any): EncodedTable = {
    val cols = Array.tabulate(attrIds.size) { c =>
      val dict = dictionary(c)
      val out  = new Array[Int](rows.length)
      var r = 0
      while (r < rows.length) {
        out(r) = dict.encode(cell(rows(r), c))
        r += 1
      }
      out
    }
    new EncodedTable(cols, attrIds)
  }
}
