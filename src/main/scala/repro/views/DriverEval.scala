package repro.views

import scala.concurrent.{blocking, Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.{Failure, Success}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.NamedExpression
import org.apache.spark.sql.types._
import repro.fd.{AttrSet => AS, Deadline, EncodedTable}
import repro.fd.EncodedTable.Dictionary

/** A sub-view instance held on the driver, as the base rows behind its rows:
  * `lineage(alias)(i)` is the row of base-relation instance `alias` that row
  * `i` comes from. `nRows` is known up front; the lineage is built on first
  * use, so a join whose instance nothing reads costs only its sizing.
  * `deadline` is the run's, checked before a lineage is gathered.
  */
final class DriverRows(val nRows: Int, deadline: Deadline, build: => Map[String, Array[Int]]) {
  lazy val lineage: Map[String, Array[Int]] = build

  /** The rows at positions `keep`, in that order. */
  def gather(keep: => Array[Int], n: Int): DriverRows =
    new DriverRows(n, deadline, {
      deadline.check("the driver's row gather")
      val k = keep
      lineage.map { case (a, rows) => a -> k.map(rows(_)) }
    })
}

/** The driver twin of [[ViewEval]]: selections, semijoins and inner
  * equi-joins evaluated on the int codes of the base relations that
  * [[DriverEval.collect]] collected once, with Spark's semantics. Selection
  * atoms were evaluated by Catalyst at collect time (type coercion and null
  * handling included) and combine here under SQL's three-valued AND/OR; a
  * null join key matches nothing. The run's `deadline` is checked before
  * rows are paired or gathered.
  */
final class DriverEval private (
    schema: ViewSchema,
    bases: Map[String, DriverEval.Base],
    nullCodes: Map[Int, Int],
    keyTypes: Map[Int, DataType],
    deadline: Deadline) {
  import DriverEval._

  /** Row count of base-relation instance `alias`. */
  def baseRows(alias: String): Int = bases(alias).nRows

  /** The encoded columns of `attrs` of base-relation instance `r`. */
  def baseTable(r: Rel, attrs: AS.T): EncodedTable = bases(r.alias).table.project(attrs)

  /** Base-relation instance `r`, every row. */
  def rel(r: Rel): DriverRows = {
    val n = baseRows(r.alias)
    new DriverRows(n, deadline, Map(r.alias -> Array.range(0, n)))
  }

  /** σ_p: the rows on which `p` is true (not false, not unknown). */
  def select(p: Pred, in: DriverRows): DriverRows = {
    val t    = truth(p, in)
    val keep = where(t.length)(t(_) == True)
    in.gather(keep, keep.length)
  }

  /** `spec`'s instance: None if one of its joins is one [[join]] cannot pair
    * or one whose [[DriverJoin.rows]] are None.
    */
  def eval(spec: ViewSpec): Option[DriverRows] = spec match {
    case r: Rel         => Some(rel(r))
    case Project(_, in) => eval(in)
    case Select(p, in)  => eval(in).map(select(p, _))
    case j: Join =>
      for (l <- eval(j.left); r <- eval(j.right); dj <- join(l, r, j); rows <- dj.rows(j.kind)) yield rows
  }

  /** The inner join or semijoin `j` of `l` and `r`, sized before any row is
    * paired. None for an outer join, and unless each pair of key columns has
    * one Spark type, and one whose values compare equal in Java exactly when
    * Spark's equi-join matches them.
    */
  def join(l: DriverRows, r: DriverRows, j: Join): Option[DriverJoin] = {
    val ids = j.on.map { case (a, b) => (schema.id(a), schema.id(b)) }
    val sameKeys = ids.forall { case (a, b) => keyTypes(a) == keyTypes(b) && codeEquality(keyTypes(a)) }
    if (!pairable(j.kind) || !sameKeys) None
    else {
      val (lKey, rKey) = ids
        .map { case (a, b) => (keyCodes(l, a), keyCodes(r, b)) }
        .reduce { (acc, next) =>
          // Composite keys: number each (key so far, next code) pair densely,
          // with one numbering shared by both sides.
          val pairs = new Dictionary
          def pair(x: Array[Int], y: Array[Int]) = Array.tabulate(x.length) { i =>
            if (x(i) < 0 || y(i) < 0) -1 else pairs.encode((x(i).toLong << 32) | y(i))
          }
          (pair(acc._1, next._1), pair(acc._2, next._2))
        }
      Some(new DriverJoin(l, r, lKey, rKey, deadline))
    }
  }

  /** The encoded columns of `attrs` on the rows of `in`. */
  def table(in: DriverRows, attrs: AS.T): EncodedTable = {
    val ids = AS.toSeq(attrs).toIndexedSeq
    new EncodedTable(ids.map(i => column(in, i)).toArray, ids)
  }

  private def column(in: DriverRows, attr: Int): Array[Int] = {
    val alias = schema.ref(attr).alias
    val base  = bases(alias).table
    val codes = base.columns(base.local(attr))
    in.lineage(alias).map(codes(_))
  }

  /** Join-key codes of `attr` on `in`'s rows, with -1 for null. */
  private def keyCodes(in: DriverRows, attr: Int): Array[Int] = {
    val nul = nullCodes(attr)
    column(in, attr).map(c => if (c == nul) -1 else c)
  }

  private def truth(p: Pred, in: DriverRows): Array[Byte] = p match {
    case a: Pred.Cmp =>
      val atom = bases(a.attr.alias).atoms(a)
      in.lineage(a.attr.alias).map(atom(_))
    case Pred.And(l, r) => zip(truth(l, in), truth(r, in))((x, y) => if (x < y) x else y)
    case Pred.Or(l, r)  => zip(truth(l, in), truth(r, in))((x, y) => if (x > y) x else y)
  }

  private def zip(x: Array[Byte], y: Array[Byte])(f: (Byte, Byte) => Byte): Array[Byte] =
    Array.tabulate(x.length)(i => f(x(i), y(i)))
}

/** An inner equi-join of two driver instances, sized from per-key row
  * counts: |l ⋈ r| = Σ_k |l_k|·|r_k|, and the ⋉/⋊ sizes count the rows
  * whose key has a match. Rows are paired only when the lineage of
  * [[rows]] is read, and only before `deadline`. Keys are dense ids, -1
  * for a null key.
  */
final class DriverJoin private[views] (l: DriverRows, r: DriverRows,
                                       lKey: Array[Int], rKey: Array[Int], deadline: Deadline) {
  private val nKeys  = (lKey.iterator ++ rKey.iterator).foldLeft(-1)(math.max) + 1
  private val lCount = counts(lKey)
  private val rCount = counts(rKey)

  val size: Long        = lKey.foldLeft(0L)((s, k) => if (k < 0) s else s + rCount(k))
  val leftMatched: Int  = lKey.count(k => k >= 0 && rCount(k) > 0)
  val rightMatched: Int = rKey.count(k => k >= 0 && lCount(k) > 0)

  /** The distinct keys with rows on both sides: the distinct count, on l ⋈ r
    * and on l ⋉ r or l ⋊ r, of either side's key columns. A null key
    * matches nothing, as in Spark.
    */
  lazy val matchedKeys: Int = (0 until nKeys).count(k => lCount(k) > 0 && rCount(k) > 0)

  /** The paper's coverage of l ⋈ r (Section V, "Data"): ½ (Cov(l) + Cov(r)).
    * A side's Cov is the mean, over its distinct keys, of the join rows per
    * own row with that key, which for an inner join is the other side's row
    * count for the key. Below 1 the join drops tuples, above 1 it multiplies
    * them. A null key counts as one more distinct key with no join rows, as
    * Spark's `groupBy` counts it for a single-column key; for a composite
    * key every key with a null in it collapses into that one key, where a
    * `groupBy` would count each such combination apart. No workload has a
    * null join key.
    */
  lazy val coverage: Double = 0.5 * (cov(lKey, lCount, rCount) + cov(rKey, rCount, lCount))

  private def cov(keys: Array[Int], own: Array[Int], other: Array[Int]): Double = {
    val present = (0 until nKeys).filter(own(_) > 0)
    val n       = present.size + (if (keys.contains(-1)) 1 else 0)
    if (n == 0) 0.0 else present.map(other(_).toDouble).sum / n
  }

  /** The rows of the `kind` join of l and r: l ⋉ r, l ⋊ r or l ⋈ r. None
    * for any other kind, and for an inner join of more rows than an array
    * holds.
    */
  def rows(kind: JoinKind): Option[DriverRows] = kind match {
    case JoinKind.LeftSemi  => Some(l.gather(DriverEval.where(lKey.length)(i => matches(lKey(i), rCount)), leftMatched))
    case JoinKind.RightSemi => Some(r.gather(DriverEval.where(rKey.length)(i => matches(rKey(i), lCount)), rightMatched))
    case JoinKind.Inner if size <= Int.MaxValue => Some(inner)
    case _ => None
  }

  /** l ⋈ r, left row by left row. */
  private def inner: DriverRows =
    new DriverRows(size.toInt, deadline, {
      deadline.check("the driver's join")
      // Right rows grouped by key: those of key k are byKey(start(k) until start(k + 1)).
      val start = new Array[Int](nKeys + 1)
      var k = 0
      while (k < nKeys) { start(k + 1) = start(k) + rCount(k); k += 1 }
      val byKey = new Array[Int](start(nKeys))
      val fill  = start.clone()
      for (j <- rKey.indices if rKey(j) >= 0) { byKey(fill(rKey(j))) = j; fill(rKey(j)) += 1 }
      val li = new Array[Int](size.toInt)
      val ri = new Array[Int](size.toInt)
      var o = 0
      for (i <- lKey.indices if lKey(i) >= 0; p <- start(lKey(i)) until start(lKey(i) + 1)) {
        li(o) = i; ri(o) = byKey(p); o += 1
      }
      l.lineage.map { case (a, rows) => a -> li.map(rows(_)) } ++
        r.lineage.map { case (a, rows) => a -> ri.map(rows(_)) }
    })

  private def counts(keys: Array[Int]): Array[Int] = {
    val c = new Array[Int](nKeys)
    keys.foreach(k => if (k >= 0) c(k) += 1)
    c
  }

  private def matches(k: Int, other: Array[Int]): Boolean = k >= 0 && other(k) > 0
}

object DriverEval {

  /** One collected base-relation instance: its row count, its encoded
    * columns, and per selection atom on it the atom's truth value per row.
    */
  private[views] final case class Base(nRows: Int, table: EncodedTable, atoms: Map[Pred.Cmp, Array[Byte]])

  /** SQL truth values, ordered so that AND is min and OR is max. */
  private val False: Byte = 0
  private val Unknown: Byte = 1
  private val True: Byte = 2

  /** The join kinds the driver pairs: null padding is left to Catalyst. */
  private val pairable: Set[JoinKind] = Set(JoinKind.Inner, JoinKind.LeftSemi, JoinKind.RightSemi)

  /** What Step 1 reads of one catalog table, for every instance of it in
    * the view: the source columns any instance keeps, then its instances'
    * selection atoms, each restated on the table's own columns.
    */
  private final case class Read(table: String, columns: IndexedSeq[String], atoms: IndexedSeq[Pred.Cmp]) {
    def ordinal(column: String): Int = columns.indexOf(column)
    def ordinal(atom: Pred.Cmp): Int = columns.size + atoms.indexOf(onTable(atom, table))

    /** `columns` as `df`'s own output attributes, then the atoms as
      * Catalyst resolves them over `df`'s quoted column names, so Spark's
      * coercion and null handling stay exact.
      */
    def expressions(df: DataFrame): Seq[NamedExpression] = {
      val out = df.queryExecution.analyzed.output
      columns.map(c => out(df.columns.indexOf(c))) ++
        (if (atoms.isEmpty) Nil
         else EncodedTable.expressions(df, atoms.map(ViewEval.predColumn(_, a => ViewEval.sourceColumn(a.column)))))
    }
  }

  /** Collect each catalog table of `spec` once, whatever the number of
    * instances of it: the columns of `attrs` and the join attributes of each
    * instance, and one nullable boolean column per selection atom on it,
    * which Catalyst evaluates. The join attributes of one equivalence class
    * (linked by the join conditions) share one dictionary, so equal keys get
    * equal codes across relations.
    *
    * Each table is collected through the catalog DataFrame's own physical
    * plan, which Spark plans once per DataFrame, with the columns projected
    * inside the collect's tasks ([[EncodedTable.collect]]). Every table is
    * collected at once, then each instance is encoded from its table's rows,
    * one by one in `spec.rels` order, so the shared dictionaries are used by
    * one thread and give the same codes on every run. If a collect fails,
    * its exception is rethrown once every other collect has returned;
    * `deadline` is checked then too, and kept for the joins and gathers of
    * the instance returned.
    */
  def collect(eval: ViewEval, spec: ViewSpec, attrs: AS.T,
              deadline: Deadline = Deadline.never): DriverEval = {
    val schema = eval.schema
    val dicts  = keyDictionaries(joinConditions(spec).map { case (a, b) => (schema.id(a), schema.id(b)) })
    val keep   = AS.union(attrs, AS.fromIterable(dicts.keys))
    val atoms  = selectionAtoms(spec).distinct
    val plans  = spec.rels.map { r =>
      (r, AS.toSeq(AS.intersect(schema.attrsOf(r.alias), keep)).toIndexedSeq, atoms.filter(_.attr.alias == r.alias))
    }
    val reads = spec.rels.map(_.table).distinct.map { t =>
      val own = plans.filter(_._1.table == t)
      Read(t, own.flatMap(_._2.map(schema.ref(_).column)).distinct.toIndexedSeq,
        own.flatMap(_._3.map(onTable(_, t))).distinct.toIndexedSeq)
    }
    // A table's cost is mostly fixed (job start-up), so the collects
    // overlap; `blocking` lets the global pool add a thread for each one
    // waiting on Spark.
    implicit val ec: ExecutionContext = ExecutionContext.global
    val collected = reads.toArray.map { read =>
      Future(blocking {
        // Every Throwable: a Future completes only on a non-fatal one, so
        // an OutOfMemoryError would leave the wait below hanging.
        try Success {
          val df = eval.base(read.table)
          EncodedTable.collect(df, read.expressions(df))
        } catch { case t: Throwable => Failure(t) }
      })
    }.map(Await.result(_, Duration.Inf))
    collected.foreach(_.get)
    deadline.check("Step 1's collect")
    val types = Map.newBuilder[Int, DataType]
    val bases = plans.zipWithIndex.map { case ((r, ids, own), k) =>
      val t            = reads.indexWhere(_.table == r.table)
      val (read, data) = (reads(t), collected(t).get)
      val ordinals     = ids.map(i => read.ordinal(schema.ref(i).column))
      ids.zip(ordinals).foreach { case (i, o) =>
        if (dicts.contains(i)) types += i -> data.schema(o).dataType
      }
      val table  = data.encode(ordinals, ids, c => dicts.getOrElse(ids(c), new Dictionary))
      val truths = own.map(a => a -> data.rows.map(truthOf(_, read.ordinal(a))))
      // The rows are garbage once the table's last instance is encoded.
      if (!plans.drop(k + 1).exists(_._1.table == r.table)) collected(t) = null
      r.alias -> Base(data.nRows, table, truths.toMap)
    }.toMap
    // A key dictionary's string keys point into the collected rows: keep
    // only its null code, so that no row outlives Step 1.
    new DriverEval(schema, bases, dicts.map { case (a, d) => a -> d.codeOf(null) }, types.result(), deadline)
  }

  /** `atom` on the columns of catalog table `table`: the same atom for
    * every instance of the table.
    */
  private def onTable(atom: Pred.Cmp, table: String): Pred.Cmp = atom.copy(attr = atom.attr.copy(alias = table))

  /** The positions below `n` that satisfy `p`, ascending. */
  private[views] def where(n: Int)(p: Int => Boolean): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < n) { if (p(i)) out += i; i += 1 }
    out.result()
  }

  private def truthOf(row: InternalRow, c: Int): Byte =
    if (row.isNullAt(c)) Unknown else if (row.getBoolean(c)) True else False

  /** Key types whose codes are equal exactly when Spark's equi-join
    * matches the values. Floating point, binary and nested keys are left to
    * Catalyst.
    */
  private def codeEquality(t: DataType): Boolean = t match {
    case StringType | BooleanType | ByteType | ShortType | IntegerType | LongType |
         DateType | TimestampType => true
    case _: DecimalType => true
    case _ => false
  }

  /** One dictionary per equivalence class of the attributes the pairs link. */
  private def keyDictionaries(pairs: Seq[(Int, Int)]): Map[Int, Dictionary] =
    pairs.foldLeft(Map.empty[Int, Dictionary]) { case (m, (a, b)) =>
      (m.get(a), m.get(b)) match {
        case (Some(d), Some(e)) => if (d eq e) m else m.map { case (k, v) => k -> (if (v eq e) d else v) }
        case (Some(d), None)    => m + (b -> d)
        case (None, Some(e))    => m + (a -> e)
        case (None, None)       => val d = new Dictionary; m + (a -> d) + (b -> d)
      }
    }

  private def joinConditions(spec: ViewSpec): Seq[(AttrRef, AttrRef)] = spec match {
    case _: Rel               => Seq.empty
    case Project(_, in)       => joinConditions(in)
    case Select(_, in)        => joinConditions(in)
    case Join(l, r, on, _)    => on ++ joinConditions(l) ++ joinConditions(r)
  }

  private def selectionAtoms(spec: ViewSpec): Seq[Pred.Cmp] = {
    def atoms(p: Pred): Seq[Pred.Cmp] = p match {
      case c: Pred.Cmp    => Seq(c)
      case Pred.And(l, r) => atoms(l) ++ atoms(r)
      case Pred.Or(l, r)  => atoms(l) ++ atoms(r)
    }
    spec match {
      case _: Rel            => Seq.empty
      case Project(_, in)    => selectionAtoms(in)
      case Select(p, in)     => atoms(p) ++ selectionAtoms(in)
      case Join(l, r, _, _)  => selectionAtoms(l) ++ selectionAtoms(r)
    }
  }
}
