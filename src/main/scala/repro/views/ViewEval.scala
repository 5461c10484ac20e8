package repro.views

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit}

/** Evaluates a [[ViewSpec]] to a DataFrame through Catalyst, and emits an
  * equivalent DuckDB SQL string so every evaluation can be checked by
  * `repro.Oracle.assertEquivalent`.
  *
  * Output columns are the schema's `a<idx>` names — globally unique, so
  * multi-instance self-joins and the oracle's column matching are safe.
  */
final class ViewEval(val schema: ViewSchema, catalog: Map[String, DataFrame]) {

  /** Catalog table `table`, the DataFrame itself. */
  def base(table: String): DataFrame = catalog.getOrElse(table, sys.error(s"unknown base table $table"))

  /** Base-relation instance with columns renamed to global `a<idx>` names,
    * as one projection.
    */
  def relDf(r: Rel): DataFrame = {
    val df = base(r.table)
    df.select(df.columns.toSeq.map(c => ViewEval.sourceColumn(c).as(schema.colName(AttrRef(r.alias, c)))): _*)
  }

  /** `p` as a Catalyst boolean column over the `a<idx>` columns. */
  def predColumn(p: Pred): Column = ViewEval.predColumn(p, a => col(schema.colName(a)))

  /** Evaluate to a DataFrame whose columns are exactly proj(spec). */
  def eval(spec: ViewSpec): DataFrame = spec match {
    case r: Rel => relDf(r)
    case Project(attrs, in) =>
      eval(in).select(attrs.map(a => col(schema.colName(a))): _*)
    case Select(p, in) => eval(in).filter(predColumn(p))
    case Join(l, r, on, JoinKind.RightSemi) =>
      // Spark has no right_semi: ⋊ is ⋉ with the sides swapped.
      eval(Join(r, l, on.map(_.swap), JoinKind.LeftSemi))
    case Join(l, r, on, kind) =>
      val (ldf, rdf) = (eval(l), eval(r))
      val cond = on.map { case (a, b) =>
        ldf(schema.colName(a)) === rdf(schema.colName(b))
      }.reduce(_ && _)
      ldf.join(rdf, cond, kind.sparkType)
  }

  // ------------------------------------------------------------------
  // DuckDB twin. Every sub-view becomes a parenthesized SELECT producing
  // the same a<idx> column names, so the oracle diffs row-for-row.
  // ------------------------------------------------------------------

  private def sqlLit(v: Any): String = v match {
    case s: String => "'" + s.replace("'", "''") + "'"
    case other     => other.toString
  }

  /** Base tables are registered in DuckDB as all-VARCHAR (see Oracle), so
    * numeric comparisons must cast; equality can stay on the string form.
    */
  private def sqlPred(p: Pred): String = p match {
    case Pred.Cmp(a, op, v) =>
      val c = schema.colName(a)
      val numeric = v.isInstanceOf[Int] || v.isInstanceOf[Long] || v.isInstanceOf[Double]
      if (numeric && op != "=" && op != "<>") s"CAST($c AS DOUBLE) $op ${sqlLit(v)}"
      else if (numeric) s"CAST($c AS DOUBLE) $op CAST(${sqlLit(v)} AS DOUBLE)"
      else s"$c $op ${sqlLit(v)}"
    case Pred.And(l, r) => s"(${sqlPred(l)} AND ${sqlPred(r)})"
    case Pred.Or(l, r)  => s"(${sqlPred(l)} OR ${sqlPred(r)})"
  }

  def toSql(spec: ViewSpec): String = spec match {
    case r: Rel =>
      val cols = schema.refs.zipWithIndex
        .collect { case (ref, i) if ref.alias == r.alias => s"${ref.column} AS ${schema.colName(i)}" }
      s"(SELECT ${cols.mkString(", ")} FROM ${r.table})"
    case Project(attrs, in) =>
      val cols = attrs.map(a => schema.colName(a))
      s"(SELECT ${cols.mkString(", ")} FROM ${toSql(in)} t)"
    case Select(p, in) =>
      s"(SELECT * FROM ${toSql(in)} t WHERE ${sqlPred(p)})"
    case Join(l, r, on, kind) =>
      val cond = on.map { case (a, b) => s"l.${schema.colName(a)} = r.${schema.colName(b)}" }
        .mkString(" AND ")
      kind match {
        case JoinKind.LeftSemi =>
          s"(SELECT l.* FROM ${toSql(l)} l WHERE EXISTS (SELECT 1 FROM ${toSql(r)} r WHERE $cond))"
        case JoinKind.RightSemi =>
          s"(SELECT r.* FROM ${toSql(r)} r WHERE EXISTS (SELECT 1 FROM ${toSql(l)} l WHERE $cond))"
        case k =>
          s"(SELECT * FROM ${toSql(l)} l ${k.sql} ${toSql(r)} r ON $cond)"
      }
  }
}

object ViewEval {

  /** Column `name` of a base table, quoted, so that a dot or a backtick in
    * it is part of the name, not a path.
    */
  def sourceColumn(name: String): Column = col("`" + name.replace("`", "``") + "`")

  /** `p` as a Catalyst boolean column, each attribute read as `column(a)`. */
  def predColumn(p: Pred, column: AttrRef => Column): Column = p match {
    case Pred.Cmp(a, op, v) =>
      val c = column(a)
      op match {
        case "="  => c === lit(v)
        case "<>" => c =!= lit(v)
        case "<"  => c < lit(v)
        case "<=" => c <= lit(v)
        case ">"  => c > lit(v)
        case ">=" => c >= lit(v)
      }
    case Pred.And(l, r) => predColumn(l, column) && predColumn(r, column)
    case Pred.Or(l, r)  => predColumn(l, column) || predColumn(r, column)
  }
}
