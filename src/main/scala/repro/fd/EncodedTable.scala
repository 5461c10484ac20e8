package repro.fd

import java.nio.ByteBuffer
import scala.collection.immutable.ArraySeq
import org.apache.spark.{SparkEnv, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{AttributeSeq, BindReferences, Expression, NamedExpression, UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.catalyst.plans.logical.Project
import org.apache.spark.sql.execution.{LocalTableScanExec, SQLExecution}
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.Platform
import org.apache.spark.unsafe.array.ByteArrayMethods
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

  /** The rows of a collect as Spark's executor returned them, before any
    * conversion to `Row`s, with the schema of the expressions collected.
    */
  final class Collected private[EncodedTable] (val schema: StructType, val rows: Array[InternalRow]) {
    def nRows: Int = rows.length

    /** Encode column `ordinals(c)` as attribute `attrIds(c)` through
      * `dictionary(c)`, called once per column. Each column is read with one
      * reader picked from its Spark type, so that two cells get one code
      * exactly when Spark's grouping puts them together.
      */
    def encode(ordinals: IndexedSeq[Int], attrIds: IndexedSeq[Int], dictionary: Int => Dictionary): EncodedTable =
      EncodedTable.encode(ArraySeq.unsafeWrapArray(rows), attrIds, dictionary) { c =>
        val o    = ordinals(c)
        val read = reader(schema(o).dataType)
        row => if (row.isNullAt(o)) null else read(row, o)
      }
  }

  /** The expressions `df.select(columns)` projects, resolved against `df`'s
    * output by Catalyst's analyzer (coercion and null handling included),
    * neither optimized nor planned.
    */
  def expressions(df: DataFrame, columns: Seq[Column]): Seq[NamedExpression] =
    df.select(columns: _*).queryExecution.analyzed match {
      case Project(list, _) => list
      case other            => sys.error(s"not a projection:\n$other")
    }

  /** Collect `df` whatever its size: the caller decides what fits on the
    * driver. `collect(df, df's output)`.
    */
  def collect(df: DataFrame): Collected = collect(df, df.queryExecution.analyzed.output)

  /** Collect `exprs` over `df`'s rows, whatever their size: the caller
    * decides what fits on the driver. `exprs` are bound to the output of
    * `df`'s own physical plan, which Spark plans once per Dataset, so a
    * DataFrame collected again is neither analyzed, optimized nor planned
    * again. The plan runs as one SQL action named `collect`, as
    * `Dataset.collect` names it, so listeners see the action and its jobs;
    * the rows stay Spark's binary rows, one column per expression.
    *
    * The plan's rows come back in one job of [[Pack]] tasks, which project
    * `exprs` on each row, not through `executeCollect`: that runs
    * `RDD.collect`, whose closures capture `RDD` and `SparkContext`, so
    * every job had Spark's closure cleaner re-read both classes' bytecode
    * (about half of a small collect's CPU), and it compresses every
    * partition with LZ4 and copies every row into an array of its own on
    * the driver. A root that Spark answers without a job, a local relation,
    * keeps `executeCollect` and is projected on the driver, so that it still
    * issues none.
    */
  def collect(df: DataFrame, exprs: Seq[NamedExpression]): Collected = {
    val qe     = df.queryExecution
    val plan   = qe.executedPlan
    val bound  = BindReferences.bindReferences[Expression](exprs, new AttributeSeq(plan.output))
    val schema = StructType(exprs.map(e => StructField(e.name, e.dataType, e.nullable)))
    new Collected(schema, SQLExecution.withNewExecutionId(qe, Some("collect")) {
      plan match {
        case local: LocalTableScanExec =>
          val project = UnsafeProjection.create(bound)
          local.executeCollect().map(project(_).copy())
        case _ => Pack.collect(plan.execute(), bound)
      }
    })
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
    collect(df).encode(attrIds.indices, attrIds, _ => new Dictionary)
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

  /** The task of a collect's one job: `exprs`, bound to the rows' columns,
    * projected on each row of a partition, packed into one byte array,
    * uncompressed, each as its size in 8 bytes (which keeps every row
    * word-aligned) followed by its `UnsafeRow` bytes. A class, not a lambda,
    * so that Spark's closure cleaner has no bytecode to read.
    */
  private[fd] final class Pack(exprs: Seq[Expression])
      extends ((TaskContext, Iterator[InternalRow]) => Array[Byte]) with Serializable {
    def apply(ctx: TaskContext, rows: Iterator[InternalRow]): Array[Byte] = {
      val project = UnsafeProjection.create(exprs)
      project.initialize(ctx.partitionId())
      var buf = new Array[Byte](4096)
      var n   = 0
      while (rows.hasNext) {
        val row  = project(rows.next())
        val size = row.getSizeInBytes
        buf = Pack.reserve(buf, n.toLong + 8 + size, ctx.partitionId())
        Platform.putLong(buf, Platform.BYTE_ARRAY_OFFSET + n, size)
        row.writeToMemory(buf, Platform.BYTE_ARRAY_OFFSET + n + 8)
        n += 8 + size
      }
      java.util.Arrays.copyOf(buf, n)
    }
  }

  private[fd] object Pack {

    /** The most bytes one partition packs to: one JVM array. */
    val MaxBytes: Int = ByteArrayMethods.MAX_ROUNDED_ARRAY_LENGTH

    /** `exprs`, bound to the columns of `rdd`'s rows, over every row of
      * `rdd`, in one job: partition by partition, each an `UnsafeRow` over
      * its partition's packed bytes.
      */
    def collect(rdd: RDD[InternalRow], exprs: Seq[Expression]): Array[InternalRow] = {
      val parts = new Array[Array[Byte]](rdd.partitions.length)
      rdd.sparkContext.runJob(rdd, new Pack(exprs), parts.indices,
        (p: Int, bytes: Array[Byte]) => parts(p) = bytes)
      val width = exprs.length
      val rows  = Array.newBuilder[InternalRow]
      parts.foreach { bytes =>
        var o = 0
        while (o < bytes.length) {
          val size = Platform.getLong(bytes, Platform.BYTE_ARRAY_OFFSET + o).toInt
          val row  = new UnsafeRow(width)
          row.pointTo(bytes, Platform.BYTE_ARRAY_OFFSET + o + 8, size)
          rows += row
          o += 8 + size
        }
      }
      rows.result()
    }

    /** `buf`, or a copy grown to hold `needed` bytes. A partition that
      * needs more than one array holds fails here, before any allocation,
      * rather than overflow.
      */
    def reserve(buf: Array[Byte], needed: Long, partition: Int): Array[Byte] =
      if (needed <= buf.length) buf
      else if (needed > MaxBytes) {
        val limit = Option(SparkEnv.get).fold("unset")(_.conf.get("spark.driver.maxResultSize", "1g"))
        throw new IllegalStateException(
          s"partition $partition of a collect packs to at least $needed bytes, over the $MaxBytes bytes " +
            s"of one JVM array; spark.driver.maxResultSize ($limit) bounds the whole collect, and " +
            "each partition must also fit one array: split the input into more partitions")
      } else java.util.Arrays.copyOf(buf, math.min(MaxBytes.toLong, math.max(needed, 2L * buf.length)).toInt)
  }
}
