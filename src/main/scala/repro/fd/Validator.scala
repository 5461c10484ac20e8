package repro.fd

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.fd.{AttrSet => AS}

/** Validity oracle for candidate FDs over one instance. Attribute indices
  * are global; implementations translate to their own layout. `holds` and
  * `isKey` are defined over `cardinality`; a decorator may answer them
  * without it.
  */
trait FDValidator {
  def nRows: Long
  /** Distinct count of the value combinations over `attrs`. */
  def cardinality(attrs: AS.T): Long
  /** Does `lhs → rhs` hold on the instance (null == null semantics)? */
  def holds(lhs: AS.T, rhs: Int): Boolean =
    cardinality(lhs) == cardinality(AS.add(lhs, rhs))
  def isKey(attrs: AS.T): Boolean = cardinality(attrs) == nRows
  /** Keep the cached partitions of only `sets` and of single attributes. A
    * level-wise search calls this when a level is done, naming the sets the
    * next level is built from, so that it holds at most two levels.
    */
  def retain(sets: Iterable[AS.T]): Unit = ()
}

/** Driver-side validator over a collected, dictionary-encoded instance —
  * used when the instance fits under the collect threshold; cardinalities
  * come from stripped partitions, as in the paper's single-node miner
  * (|π_X| = n − e(π_X), so equal cardinalities mean equal errors).
  */
final class DriverValidator(val table: EncodedTable) extends FDValidator {
  private[fd] val store = new PartitionStore(table)
  private def loc(attrs: AS.T): AS.T = AS.fromIterable(AS.toSeq(attrs).map(table.local))
  val nRows: Long = table.nRows
  def cardinality(attrs: AS.T): Long = store(loc(attrs)).cardinality.toLong
  override def retain(sets: Iterable[AS.T]): Unit = store.retain(sets.map(loc))
}

/** Spark-side validator: FD checks as distinct-count equalities computed by
  * Catalyst over a cached DataFrame whose columns are named `a<globalIdx>`.
  * This is the "mine partitions on-the-fly via groupBy/distinct checks"
  * path of the reproduction hint — the instance is never collected.
  * `nRows` is the row count of `df`, which the caller already knows. Each
  * call is one Spark action: callers memoize through [[LazyValidator]],
  * which also answers the empty set. `deadline` is checked before each one.
  */
final class SparkValidator(val df: DataFrame, val nRows: Long,
                           deadline: Deadline = Deadline.never) extends FDValidator {
  private val cached = df.cache()
  def cardinality(attrs: AS.T): Long = {
    deadline.check("SparkValidator")
    Columns.select(cached, attrs).distinct().count()
  }
}

/** The one memo of an instance's cardinalities, in front of a validator it
  * builds only when a check needs data — the heart of the paper's savings:
  * when logical pruning leaves no candidate to validate, the join is never
  * computed at all. `nRows` is the instance's row count, which the caller
  * knows without the validator; `known` are cardinalities known up front
  * (a join's key sets, from its per-key counts). `cardinality(X)` answers
  * from the memo; else with `nRows` if some answered set below X is a key
  * (a superset of a key is a key); else, for X = ∅, with min(1, nRows);
  * else from the validator, memoized.
  */
final class LazyValidator(count: => Long, known: Map[AS.T, Long], mk: () => FDValidator)
    extends FDValidator {
  private lazy val v = mk()
  /** True once some check has forced materialization. */
  @volatile var materialized = false
  lazy val nRows: Long = count
  private val memo = mutable.LongMap.from(known)
  // The answered sets of cardinality nRows; read on the first miss.
  private lazy val keys = mutable.ArrayBuffer.from(known.collect { case (s, c) if c == nRows => s })
  def cardinality(attrs: AS.T): Long = memo.getOrElse(attrs, {
    val c =
      if (keys.exists(AS.subsetOf(_, attrs))) nRows
      else {
        val c =
          if (AS.isEmpty(attrs)) math.min(1L, nRows)
          else { materialized = true; v.cardinality(attrs) }
        if (c == nRows) keys += attrs
        c
      }
    memo(attrs) = c
    c
  })
  override def retain(sets: Iterable[AS.T]): Unit = if (materialized) v.retain(sets)
}

object Validator {
  /** Collect threshold: the FD checks of an instance of at most this many
    * rows run on the driver, over its stripped partitions; those of a larger
    * one run as distinct counts in Spark. It picks only where checks run:
    * whether the driver holds a sub-view's rows is `DriverEval`'s rule, at
    * any size. Override with `-Dspark.infine.collectThreshold=N`.
    */
  def collectThreshold: Long =
    sys.props.get("spark.infine.collectThreshold").map(_.toLong).getOrElse(2_000_000L)

  /** The validator of the columns `attrs` of `df`, an instance of `nRows`
    * rows that the caller already knows: on the driver when `nRows` is at
    * most the collect threshold, over `table(attrs)` if the caller holds
    * the rows, else over `df` collected; above it, distinct counts in Spark.
    * `df` is only read when the checks need it, and each Spark action (its
    * collect, a distinct count) is issued only before `deadline`.
    */
  def forDataFrame(df: => DataFrame, attrs: AS.T, nRows: Long,
                   table: Option[AS.T => EncodedTable] = None,
                   deadline: Deadline = Deadline.never): FDValidator =
    if (nRows > collectThreshold) new SparkValidator(Columns.select(df, attrs), nRows, deadline)
    else new DriverValidator(table.fold {
      deadline.check("a Catalyst collect")
      Columns.encode(df, attrs)
    }(_(attrs)))
}
