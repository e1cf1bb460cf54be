package repro.bench

import repro.SparkSpec
import repro.eval.Figure.Fig3

/** Figs. 3 & 5: runtime and #pairs/recall vs max-frequency M for the fuzzy /
  * greedy / exact TSJ variants.
  *
  * Paper (M from 100 to 1000 on 44.4M names; M=1000 drops ~1% of tokens):
  * greedy saves ~9% runtime, exact ~33%, both stable across M; recall of
  * greedy ≈0.999999, recall of exact between 0.974 and 0.985. Our M sweep is
  * scaled to the corpus so a comparable ~1% token-drop point is included
  * (see EXPERIMENTS.md).
  */
class Fig3And5SweepMBench extends SparkSpec {

  test("figs 3 & 5: runtime and pairs/recall vs M") {
    val n = Fig3.defaultSize
    val rows = Fig3.rows(spark, n)
    println(Fig3.report(n, rows))

    // Shape checks.
    assert(rows.filter(_.variant == "fuzzy-token-matching").forall(_.recall == 1.0))
    assert(rows.forall(_.recall <= 1.0 + 1e-12))
    for (v <- rows.map(_.variant).distinct) {
      val byM = rows.filter(_.variant == v).sortBy(_.param)
      assert(byM.head.pairs <= byM.last.pairs, s"$v pairs not monotone in M")
    }
    // Greedy recall stays essentially perfect across M (paper: ~0.999999).
    val greedy = rows.filter(_.variant == "greedy-token-aligning")
    assert(greedy.forall(_.recall >= 0.99), s"greedy recalls: ${greedy.map(_.recall)}")
  }
}
