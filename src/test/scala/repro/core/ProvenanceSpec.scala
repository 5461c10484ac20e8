package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.fd.{AttrSet => AS, FD}
import repro.views._

class ProvenanceSpec extends AnyFunSuite {

  private val spec = Join(Rel("l"), Rel("r"),
    Seq((AttrRef("l", "k"), AttrRef("r", "k2"))))

  test("FDType labels match the paper's Definition 8 vocabulary") {
    assert(FDType.all.map(_.label) == Seq(
      "base", "upstaged selection", "upstaged left", "upstaged right",
      "inferred", "joinFD"))
  }

  test("triple renders as (fd, \"type\", subquery)") {
    val schema = ViewSchema.of(spec,
      Map("l" -> Seq("k", "a"), "r" -> Seq("k2", "b")))
    val t = ProvenanceTriple(FD(AS.of(1), 3), FDType.JoinFD, spec)
    val s = t.render(schema)
    assert(s == "(l.a -> r.b, \"joinFD\", (l ⋈[l.k=r.k2] r))")
  }

  test("classify keeps input triples and types new FDs by side, implication, then join") {
    // l = {0, 1}, r = {2, 3}; input FDs 0→1 (base) and 1→2 (base).
    val inputs = Set(
      ProvenanceTriple(FD(AS.of(0), 1), FDType.Base, Rel("l")),
      ProvenanceTriple(FD(AS.of(1), 2), FDType.Base, Rel("r")))
    val mined = Set(FD(AS.of(0), 1), FD(AS.empty, 0), FD(AS.of(3), 2),
      FD(AS.of(0), 2), FD(AS.of(1, 3), 0))
    val types = Provenance.classify(mined, inputs, Some((AS.of(0, 1), AS.of(2, 3))), spec)
      .map(t => t.fd -> (t.fdType, t.subquery)).toMap
    assert(types == Map(
      FD(AS.of(0), 1)    -> (FDType.Base, Rel("l")),
      FD(AS.empty, 0)    -> (FDType.UpstagedLeft, spec),
      FD(AS.of(3), 2)    -> (FDType.UpstagedRight, spec),
      FD(AS.of(0), 2)    -> (FDType.Inferred, spec),
      FD(AS.of(1, 3), 0) -> (FDType.JoinFD, spec)))
    val noJoin = Provenance.classify(Set(FD(AS.empty, 0)), Set.empty, None, Rel("l"))
    assert(noJoin.map(_.fdType) == Set(FDType.UpstagedSelection))
  }

  test("merge keeps the earlier triple on duplicate FDs") {
    val d  = FD(AS.of(0), 1)
    val t1 = ProvenanceTriple(d, FDType.Base, Rel("l"))
    val t2 = ProvenanceTriple(d, FDType.JoinFD, spec)
    val merged = InFine.merge(Set(t1), Seq(t2))
    assert(merged == Set(t1))
  }

  test("merge drops triples subsumed by a fresh generalization") {
    val specific = ProvenanceTriple(FD(AS.of(0, 2), 1), FDType.Base, Rel("l"))
    val general  = ProvenanceTriple(FD(AS.of(0), 1), FDType.UpstagedLeft, spec)
    val merged = InFine.merge(Set(specific), Seq(general))
    assert(merged == Set(general))
  }

  test("merge keeps incomparable FDs with the same rhs") {
    val a = ProvenanceTriple(FD(AS.of(0), 2), FDType.Base, Rel("l"))
    val b = ProvenanceTriple(FD(AS.of(1), 2), FDType.Base, Rel("r"))
    assert(InFine.merge(Set(a), Seq(b)) == Set(a, b))
  }
}
