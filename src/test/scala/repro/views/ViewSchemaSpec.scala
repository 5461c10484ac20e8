package repro.views

import org.scalatest.funsuite.AnyFunSuite
import repro.fd.{AttrSet => AS, FD}

class ViewSchemaSpec extends AnyFunSuite {

  private val cols = Map("r" -> Seq("k", "a"), "s" -> Seq("k2", "b", "c"))
  private val join = Join(Rel("r"), Rel("s"), Seq((AttrRef("r", "k"), AttrRef("s", "k2"))))

  test("ids are assigned left-to-right across relation instances") {
    val schema = ViewSchema.of(join, cols)
    assert(schema.size == 5)
    assert(schema.id(AttrRef("r", "k")) == 0)
    assert(schema.id(AttrRef("s", "c")) == 4)
    assert(schema.ref(3) == AttrRef("s", "b"))
  }

  test("colName and prettyName are stable") {
    val schema = ViewSchema.of(join, cols)
    assert(schema.colName(2) == "a2")
    assert(schema.prettyName(2) == "s.k2")
  }

  test("a view over more than 64 attributes is rejected with its attribute count") {
    val wide = Map("r" -> Seq("k", "a"), "s" -> (0 until 63).map(i => s"c$i"))
    val e = intercept[IllegalArgumentException](ViewSchema.of(join, wide))
    assert(e.getMessage.contains("65 attributes"))
    assert(e.getMessage.contains("64-attribute"))
    assert(ViewSchema.of(join, wide.updated("r", Seq("k"))).size == 64)
  }

  test("unknown attribute raises with a helpful message") {
    val schema = ViewSchema.of(join, cols)
    val e = intercept[RuntimeException](schema.id(AttrRef("r", "nope")))
    assert(e.getMessage.contains("nope"))
  }

  test("attrsOf groups by alias") {
    val schema = ViewSchema.of(join, cols)
    assert(AS.toSeq(schema.attrsOf("r")) == Seq(0, 1))
    assert(AS.toSeq(schema.attrsOf("s")) == Seq(2, 3, 4))
  }

  test("self-join aliases get disjoint ids") {
    val self = Join(Rel("r", "r1"), Rel("r", "r2"),
      Seq((AttrRef("r1", "a"), AttrRef("r2", "a"))))
    val schema = ViewSchema.of(self, cols)
    assert(schema.size == 4)
    assert(AS.intersect(schema.attrsOf("r1"), schema.attrsOf("r2")) == AS.empty)
  }

  test("renderFd uses pretty attribute names") {
    val schema = ViewSchema.of(join, cols)
    assert(schema.renderFd(FD(AS.of(0, 3), 4)) == "r.k,s.b -> s.c")
  }

  test("idsOf projects through σ and π") {
    val spec = Project(Seq(AttrRef("r", "a"), AttrRef("s", "b")),
      Select(Pred.Cmp(AttrRef("s", "c"), "=", "x"), join))
    val schema = ViewSchema.of(spec, cols)
    assert(AS.toSeq(schema.idsOf(spec)) == Seq(1, 3))
  }

  test("Pred rejects unknown comparison operators") {
    intercept[IllegalArgumentException](Pred.Cmp(AttrRef("r", "a"), "!=", 1))
  }

  test("rels enumerates instances left-to-right") {
    val spec = Join(join, Rel("r", "r2"), Seq((AttrRef("s", "b"), AttrRef("r2", "a"))))
    assert(spec.rels.map(_.alias) == Seq("r", "s", "r2"))
  }
}
