package repro.views

import repro.SparkSpec

class CoverageSpec extends SparkSpec {

  test("coverage 1.0 when the join is a bijection") {
    val l = df(Seq("k"), Seq(Seq("1"), Seq("2")))
    val r = df(Seq("k2"), Seq(Seq("1"), Seq("2")))
    val j = l.join(r, l("k") === r("k2"))
    assert(Coverage.of(j, l, r, Seq("k"), Seq("k2")) == 1.0)
  }

  test("coverage < 1 when tuples drop") {
    val l = df(Seq("k"), Seq(Seq("1"), Seq("2"))) // "2" has no partner
    val r = df(Seq("k2"), Seq(Seq("1")))
    val j = l.join(r, l("k") === r("k2"))
    // left side: value 1 ratio 1, value 2 ratio 0 → 0.5; right side: 1.0.
    assert(Coverage.of(j, l, r, Seq("k"), Seq("k2")) == 0.75)
  }

  test("coverage > 1 when tuples multiply") {
    val l = df(Seq("k"), Seq(Seq("1")))
    val r = df(Seq("k2"), Seq(Seq("1"), Seq("1"), Seq("1")))
    val j = l.join(r, l("k") === r("k2"))
    // left value 1: 3 join rows / 1 input row = 3; right value 1: 3/3 = 1.
    assert(Coverage.of(j, l, r, Seq("k"), Seq("k2")) == 2.0)
  }

  test("coverage 0 when nothing joins") {
    val l = df(Seq("k"), Seq(Seq("1")))
    val r = df(Seq("k2"), Seq(Seq("9")))
    val j = l.join(r, l("k") === r("k2"))
    assert(Coverage.of(j, l, r, Seq("k"), Seq("k2")) == 0.0)
  }

  test("multi-attribute join keys") {
    val l = df(Seq("k1", "k2"), Seq(Seq("1", "a"), Seq("1", "b")))
    val r = df(Seq("j1", "j2"), Seq(Seq("1", "a")))
    val j = l.join(r, l("k1") === r("j1") && l("k2") === r("j2"))
    // left: (1,a)→1, (1,b)→0 ⇒ 0.5; right: 1.0 ⇒ 0.75 total.
    assert(Coverage.of(j, l, r, Seq("k1", "k2"), Seq("j1", "j2")) == 0.75)
  }
}
