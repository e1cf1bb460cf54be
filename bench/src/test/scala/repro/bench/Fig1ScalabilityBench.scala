package repro.bench

import repro.SparkSpec
import repro.eval.Figure.Fig1

/** Fig. 1: TSJ runtime vs #workers for the two dedup strategies.
  *
  * Paper (44.4M names, 100→1000 machines): both strategies scale out with a
  * speedup of ~3.8 over a 10× machine increase; grouping-on-one-string is
  * consistently 13–32% faster. Here "machines" are simulated as concurrent
  * task slots (see DESIGN.md §3).
  */
class Fig1ScalabilityBench extends SparkSpec {

  test("fig1: runtime vs workers and dedup strategy") {
    val n = Fig1.defaultSize
    val rows = Fig1.rows(spark, n)
    println(Fig1.report(n, rows))

    // Shape checks (lenient — timing noise exists):
    // both strategies agree on the join result,
    rows.groupBy(_.workers).foreach { case (_, rs) =>
      assert(rs.map(_.pairs).distinct.size == 1)
    }
    // and scaling out helps: the best many-worker run beats the 2-worker run.
    for (dedup <- rows.map(_.dedup).distinct) {
      val rs = rows.filter(_.dedup == dedup)
      val atMin = rs.filter(_.workers == 2).map(_.seconds).min
      val atMax = rs.filter(_.workers == 16).map(_.seconds).min
      assert(atMax < atMin * 1.25, s"$dedup did not scale: 2w=$atMin 16w=$atMax")
    }
  }
}
