package repro.fd

import java.nio.ByteBuffer
import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.types._
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

  /** A DataFrame's rows as Spark's executor returned them, before any
    * conversion to `Row`s, with the DataFrame's schema.
    */
  final class Collected private[EncodedTable] (val schema: StructType, val rows: Array[InternalRow]) {
    def nRows: Int = rows.length

    /** Encode column `c` as attribute `attrIds(c)` through `dictionary(c)`,
      * called once per column; columns past `attrIds` are left out. Each
      * column is read with one reader picked from its Spark type, so that
      * two cells get one code exactly when Spark's grouping puts them
      * together.
      */
    def encode(attrIds: IndexedSeq[Int], dictionary: Int => Dictionary): EncodedTable =
      EncodedTable.encode(ArraySeq.unsafeWrapArray(rows), attrIds, dictionary) { c =>
        val read = reader(schema(c).dataType)
        row => if (row.isNullAt(c)) null else read(row, c)
      }
  }

  /** Collect `df` whatever its size: the caller decides what fits on the
    * driver. Its physical plan runs as one SQL action named `collect`, as
    * `Dataset.collect` runs it, so listeners see the action and its jobs;
    * its rows stay Spark's binary rows.
    */
  def collect(df: DataFrame): Collected = {
    val qe = df.queryExecution
    new Collected(df.schema,
      SQLExecution.withNewExecutionId(qe, Some("collect"))(qe.executedPlan.executeCollect()))
  }

  /** Collect `df` and dictionary-encode it, whatever its size. Both
    * pipelines collect this way only an instance that `DriverEval` cannot
    * evaluate from the base relations it holds: `Validator.forDataFrame`
    * when the instance's checks run on the driver (at most the collect
    * threshold rows; larger ones go to [[SparkValidator]]), the
    * straightforward pipeline for its view.
    */
  def fromDataFrame(df: DataFrame, attrIds: IndexedSeq[Int]): EncodedTable = {
    val width = df.columns.length
    require(width == attrIds.size,
      s"schema mismatch: df has $width cols, ${attrIds.size} attr ids given")
    collect(df).encode(attrIds, _ => new Dictionary)
  }

  /** Row-major literal construction for tests. */
  def fromRows(rows: Seq[Seq[Any]], attrIds: IndexedSeq[Int]): EncodedTable = {
    require(rows.forall(_.size == attrIds.size))
    encode(rows.toIndexedSeq, attrIds, _ => new Dictionary)(c => _(c))
  }

  /** The dictionary loop: per column, each distinct value (null included,
    * hashed like any other) gets the next dense code of its dictionary.
    * `cell(c)` reads column `c` of a row.
    */
  private def encode[R](rows: IndexedSeq[R], attrIds: IndexedSeq[Int], dictionary: Int => Dictionary)
                       (cell: Int => R => Any): EncodedTable = {
    val cols = Array.tabulate(attrIds.size) { c =>
      val dict = dictionary(c)
      val read = cell(c)
      val out  = new Array[Int](rows.length)
      var r = 0
      while (r < rows.length) {
        out(r) = dict.encode(read(rows(r)))
        r += 1
      }
      out
    }
    new EncodedTable(cols, attrIds)
  }

  /** The reader of a non-null cell of Spark type `t`: a value equal to
    * another exactly when Spark's grouping and `distinct` put the two
    * together. Strings stay UTF-8 bytes, dates and timestamps their day and
    * microsecond counts. Floating point is normalized as Spark normalizes
    * it for grouping: -0.0 is 0.0 and every NaN is one NaN. Binary compares
    * by content. Any other type is read as Spark's internal value, copied
    * out of the row.
    */
  private def reader(t: DataType): (InternalRow, Int) => Any = t match {
    case _: StringType                               => _.getUTF8String(_)
    case IntegerType | DateType                      => _.getInt(_)
    case LongType | TimestampType | TimestampNTZType => _.getLong(_)
    case DoubleType =>
      (row, c) => { val d = row.getDouble(c); if (d.isNaN) Double.NaN else if (d == 0.0) 0.0 else d }
    case FloatType =>
      (row, c) => { val f = row.getFloat(c); if (f.isNaN) Float.NaN else if (f == 0.0f) 0.0f else f }
    case BinaryType => (row, c) => ByteBuffer.wrap(row.getBinary(c))
    case _          => (row, c) => InternalRow.copyValue(row.get(c, t))
  }
}
