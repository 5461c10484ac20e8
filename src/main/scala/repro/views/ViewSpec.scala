package repro.views

import repro.fd.{AttrSet => AS, Columns}

/** A reference to an attribute of a base-relation *instance*: `alias.column`.
  * Aliases matter because a view may use the same base table twice
  * (e.g. PTE's `atm ⋈ bond ⋈ atm`).
  */
final case class AttrRef(alias: String, column: String) {
  override def toString: String = s"$alias.$column"
}

/** Join operators of the paper's SPJ fragment (Definition 2). */
sealed abstract class JoinKind(val sparkType: String, val sql: String)
object JoinKind {
  case object Inner     extends JoinKind("inner", "JOIN")
  case object LeftOuter extends JoinKind("left_outer", "LEFT JOIN")
  case object RightOuter extends JoinKind("right_outer", "RIGHT JOIN")
  case object FullOuter extends JoinKind("full_outer", "FULL JOIN")
  /** ⋉ — keeps left attributes only. */
  case object LeftSemi  extends JoinKind("left_semi", "SEMI")
  /** ⋊ — keeps right attributes only. */
  case object RightSemi extends JoinKind("right_semi", "SEMI")
}

/** Selection predicates — a small comparison fragment, expressible both as a
  * Catalyst `Column` and as DuckDB SQL (for the oracle twin).
  */
sealed trait Pred
object Pred {
  final case class Cmp(attr: AttrRef, op: String, value: Any) extends Pred {
    require(Set("=", "<>", "<", "<=", ">", ">=").contains(op), s"bad op $op")
  }
  final case class And(l: Pred, r: Pred) extends Pred
  final case class Or(l: Pred, r: Pred)  extends Pred
}

/** SPJ view specification tree (paper Definition 2). */
sealed trait ViewSpec {
  /** Pretty form used inside provenance triples. */
  def render: String = this match {
    case Rel(t, a) if t == a   => t
    case Rel(t, a)             => s"$t AS $a"
    case Project(attrs, in)    => s"π[${attrs.mkString(",")}](${in.render})"
    case Select(p, in)         => s"σ[${Render.pred(p)}](${in.render})"
    case Join(l, r, on, k)     =>
      val cond = on.map { case (a, b) => s"$a=$b" }.mkString(" ∧ ")
      s"(${l.render} ${Render.joinSym(k)}[$cond] ${r.render})"
  }

  /** All base-relation instances, left-to-right. */
  def rels: Seq[Rel] = this match {
    case r: Rel          => Seq(r)
    case Project(_, in)  => in.rels
    case Select(_, in)   => in.rels
    case Join(l, r, _, _) => l.rels ++ r.rels
  }

  /** The outermost join, skipping σ/π wrappers. */
  def topJoin: Option[Join] = this match {
    case j: Join        => Some(j)
    case Project(_, in) => in.topJoin
    case Select(_, in)  => in.topJoin
    case _: Rel         => None
  }
}

final case class Rel(table: String, alias: String) extends ViewSpec
object Rel { def apply(table: String): Rel = Rel(table, table) }

final case class Project(attrs: Seq[AttrRef], input: ViewSpec) extends ViewSpec
final case class Select(pred: Pred, input: ViewSpec) extends ViewSpec
final case class Join(left: ViewSpec, right: ViewSpec,
                      on: Seq[(AttrRef, AttrRef)], kind: JoinKind = JoinKind.Inner)
  extends ViewSpec

private object Render {
  def joinSym(k: JoinKind): String = k match {
    case JoinKind.Inner      => "⋈"
    case JoinKind.LeftOuter  => "⟕"
    case JoinKind.RightOuter => "⟖"
    case JoinKind.FullOuter  => "⟗"
    case JoinKind.LeftSemi   => "⋉"
    case JoinKind.RightSemi  => "⋊"
  }
  def pred(p: Pred): String = p match {
    case Pred.Cmp(a, op, v) => s"$a $op $v"
    case Pred.And(l, r)     => s"(${pred(l)} ∧ ${pred(r)})"
    case Pred.Or(l, r)      => s"(${pred(l)} ∨ ${pred(r)})"
  }
}

/** Global attribute numbering for one view over a catalog of base tables.
  *
  * Every `(alias, column)` pair of every relation instance in the view gets
  * a stable global index; evaluated DataFrames name their columns `a<idx>`
  * so that FD machinery, Spark checks and provenance all agree positionally.
  */
final class ViewSchema private (val refs: IndexedSeq[AttrRef]) {
  private val index: Map[AttrRef, Int] = refs.zipWithIndex.toMap
  require(index.size == refs.size, "duplicate (alias, column) pair")

  def size: Int = refs.size
  def id(ref: AttrRef): Int =
    index.getOrElse(ref, sys.error(s"unknown attribute $ref (have ${refs.mkString(", ")})"))
  def ref(id: Int): AttrRef      = refs(id)
  def colName(id: Int): String   = Columns.name(id)
  def colName(ref: AttrRef): String = colName(id(ref))
  def prettyName(id: Int): String = refs(id).toString
  def attrsOf(alias: String): AS.T =
    AS.fromIterable(refs.zipWithIndex.collect { case (r, i) if r.alias == alias => i })
  def idsOf(spec: ViewSpec): AS.T =
    AS.fromIterable(ViewSchema.projRefs(spec, this).map(id))
  def renderFd(d: repro.fd.FD): String = d.render(prettyName)
}

object ViewSchema {
  /** Assign ids for every attribute of every relation instance of `spec`,
    * given each base table's column list.
    */
  def of(spec: ViewSpec, columnsOf: String => Seq[String]): ViewSchema = {
    val refs = spec.rels.flatMap(r => columnsOf(r.table).map(c => AttrRef(r.alias, c)))
    require(refs.size <= AS.capacity,
      s"view has ${refs.size} attributes, over the ${AS.capacity}-attribute limit of AttrSet")
    new ViewSchema(refs.toIndexedSeq)
  }

  /** The paper's proj() (Definition 3), as attribute refs. */
  def projRefs(spec: ViewSpec, schema: ViewSchema): Seq[AttrRef] = spec match {
    case Rel(_, alias)     => schema.refs.filter(_.alias == alias)
    case Project(attrs, _) => attrs
    case Select(_, in)     => projRefs(in, schema)
    case Join(l, r, _, k)  => k match {
      case JoinKind.LeftSemi  => projRefs(l, schema)
      case JoinKind.RightSemi => projRefs(r, schema)
      case _                  => projRefs(l, schema) ++ projRefs(r, schema)
    }
  }
}
