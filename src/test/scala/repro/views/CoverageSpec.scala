package repro.views

import org.apache.spark.sql.DataFrame
import repro.SparkSpec

class CoverageSpec extends SparkSpec {

  /** `DriverJoin.coverage` of l ⋈ r on the key column pairs `on`. */
  private def coverage(l: DataFrame, r: DataFrame, on: (String, String)*): Double = {
    val catalog = Map("l" -> l, "r" -> r)
    val j       = Join(Rel("l"), Rel("r"), on.map { case (a, b) => (AttrRef("l", a), AttrRef("r", b)) })
    val schema  = ViewSchema.of(j, t => catalog(t).columns.toSeq)
    val driver  = DriverEval.collect(new ViewEval(schema, catalog), j, schema.idsOf(j))
    driver.join(driver.rel(Rel("l")), driver.rel(Rel("r")), j).get.coverage
  }

  test("coverage 1.0 when the join is a bijection") {
    val l = df(Seq("k"), Seq(Seq("1"), Seq("2")))
    val r = df(Seq("k2"), Seq(Seq("1"), Seq("2")))
    assert(coverage(l, r, "k" -> "k2") == 1.0)
  }

  test("coverage < 1 when tuples drop") {
    val l = df(Seq("k"), Seq(Seq("1"), Seq("2"))) // "2" has no partner
    val r = df(Seq("k2"), Seq(Seq("1")))
    // left side: value 1 ratio 1, value 2 ratio 0 → 0.5; right side: 1.0.
    assert(coverage(l, r, "k" -> "k2") == 0.75)
  }

  test("coverage > 1 when tuples multiply") {
    val l = df(Seq("k"), Seq(Seq("1")))
    val r = df(Seq("k2"), Seq(Seq("1"), Seq("1"), Seq("1")))
    // left value 1: 3 join rows / 1 input row = 3; right value 1: 3/3 = 1.
    assert(coverage(l, r, "k" -> "k2") == 2.0)
  }

  test("coverage 0 when nothing joins") {
    val l = df(Seq("k"), Seq(Seq("1")))
    val r = df(Seq("k2"), Seq(Seq("9")))
    assert(coverage(l, r, "k" -> "k2") == 0.0)
  }

  test("multi-attribute join keys") {
    val l = df(Seq("k1", "k2"), Seq(Seq("1", "a"), Seq("1", "b")))
    val r = df(Seq("j1", "j2"), Seq(Seq("1", "a")))
    // left: (1,a)→1, (1,b)→0 ⇒ 0.5; right: 1.0 ⇒ 0.75 total.
    assert(coverage(l, r, "k1" -> "j1", "k2" -> "j2") == 0.75)
  }

  test("a null key is one more distinct key with no join rows") {
    val l = df(Seq("k"), Seq(Seq("1"), Seq(null)))
    val r = df(Seq("k2"), Seq(Seq("1")))
    // left: 1→1, null→0 ⇒ 0.5; right: 1.0 ⇒ 0.75 total, as Spark's groupBy gives.
    assert(coverage(l, r, "k" -> "k2") == 0.75)
  }
}
