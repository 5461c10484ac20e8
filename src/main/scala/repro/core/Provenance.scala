package repro.core

import repro.fd.{AttrSet => AS, FD, FDSet}
import repro.views.{ViewSchema, ViewSpec}

/** Provenance type of an FD over an integrated view (paper Definition 8). */
sealed abstract class FDType(val label: String)
object FDType {
  case object Base              extends FDType("base")
  case object UpstagedSelection extends FDType("upstaged selection")
  case object UpstagedLeft      extends FDType("upstaged left")
  case object UpstagedRight     extends FDType("upstaged right")
  case object Inferred          extends FDType("inferred")
  case object JoinFD            extends FDType("joinFD")
  val all: Seq[FDType] =
    Seq(Base, UpstagedSelection, UpstagedLeft, UpstagedRight, Inferred, JoinFD)
}

/** Provenance triple `(d, t, s)`: the FD, its type, and the first sub-query
  * of the view specification in which it holds (paper Definition 8).
  */
final case class ProvenanceTriple(fd: FD, fdType: FDType, subquery: ViewSpec) {
  def render(schema: ViewSchema): String =
    s"(${schema.renderFd(fd)}, \"${fdType.label}\", ${subquery.render})"
}

object Provenance {

  /** Triples for the FDs `mined` on the sub-view `at`. An FD that one of
    * the `inputs` already has keeps that input's triple. Any other FD is
    * "upstaged left" or "upstaged right" when the attributes of that side of
    * the join (`sides`) contain it, "inferred" when the inputs' FDs imply
    * it, and a join FD otherwise; at a sub-view without a join (`sides`
    * empty) it is "upstaged selection".
    */
  def classify(mined: Set[FD], inputs: Set[ProvenanceTriple],
               sides: Option[(AS.T, AS.T)], at: ViewSpec): Set[ProvenanceTriple] = {
    val byFd = inputs.map(t => t.fd -> t).toMap
    mined.map { d =>
      byFd.getOrElse(d, ProvenanceTriple(d, sides match {
        case None                                    => FDType.UpstagedSelection
        case Some((l, _)) if AS.subsetOf(d.attrs, l) => FDType.UpstagedLeft
        case Some((_, r)) if AS.subsetOf(d.attrs, r) => FDType.UpstagedRight
        case _ if FDSet.implies(byFd.keySet, d)      => FDType.Inferred
        case _                                       => FDType.JoinFD
      }, at))
    }
  }
}
