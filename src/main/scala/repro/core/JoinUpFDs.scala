package repro.core

import repro.fd.{AttrSet => AS, Columns, FD, FDValidator, LatticeSearch}

/** Algorithm 3 — upstaged FDs appearing through a join.
  *
  * For side `I` of `I ⋈ J`, the FDs over I's attributes that hold on the
  * join are exactly the FDs of the semijoin `I ⋉ J` (duplication by the
  * join multiplies equal-on-I rows, which can never violate an FD over I's
  * attributes — Lemma 2). The semijoin is computed as a Spark `left_semi`
  * join against the projected key columns (line #13), but only for the
  * *size check* of line #14 — a count, never a materialization. When the
  * check shows the join-value-set-preservation assumption is violated, the
  * actual mining validates candidates on the shared join-instance
  * validator: distinct-combination counts over one side's attributes are
  * identical on `I ⋉ J` and on the full join, so one lazily-materialized
  * instance serves every stage of the join node.
  */
object JoinUpFDs {

  /** Upstaged FDs of `side` given the opposite side `other`. */
  def side(ctx: InFine.Context, side: NodeResult, other: NodeResult,
           sideKeys: Seq[Int], otherKeys: Seq[Int],
           joinValidator: FDValidator): Set[FD] = {
    val universe = AS.intersect(side.attrs, ctx.minedAttrs)
    if (AS.isEmpty(universe)) return Set.empty
    val keyDf = Columns.select(other.df, AS.fromIterable(otherKeys))
    val cond = sideKeys.zip(otherKeys).map { case (x, y) =>
      side.df(Columns.name(x)) === keyDf(Columns.name(y))
    }.reduce(_ && _)
    val semi = side.df.join(keyDf, cond, "left_semi")
    if (semi.count() >= side.count) return Set.empty
    LatticeSearch.mineNew(universe, joinValidator, side.fds, ctx.deadline)
  }
}
