package repro.bench

import repro.SparkSpec
import repro.eval.Experiments
import repro.eval.Figure.Fig2

/** Figs. 2 & 4: runtime and #pairs/recall vs the NSLD threshold T for the
  * fuzzy / greedy / exact TSJ variants.
  *
  * Paper: greedy saves ~13% runtime over fuzzy (more as T grows); exact
  * saves ~60% and is nearly flat in T. Recall of greedy stays ≈1
  * (1.0 → 0.99993); recall of exact degrades from 1.0 at T=0.025 to
  * 0.86655 at T=0.225. Pair counts grow sharply with T.
  */
class Fig2And4SweepTBench extends SparkSpec {

  test("figs 2 & 4: runtime and pairs/recall vs T") {
    val n = Fig2.defaultSize
    val ts = Fig2.ts
    val rows = Fig2.rows(spark, n)
    println(Fig2.report(n, rows))

    // Shape checks.
    val fuzzy = rows.filter(_.variant == "fuzzy-token-matching").sortBy(_.param)
    assert(fuzzy.forall(_.recall == 1.0))
    assert(fuzzy.head.pairs <= fuzzy.last.pairs, "pairs must grow with T")
    assert(rows.forall(_.recall <= 1.0 + 1e-12), "approximations cannot invent pairs")
    val exact = rows.filter(_.variant == "exact-token-matching").sortBy(_.param)
    val greedy = rows.filter(_.variant == "greedy-token-aligning").sortBy(_.param)
    // Greedy recall dominates exact recall at the largest threshold, and
    // exact recall decays as T grows (the paper's headline result).
    assert(greedy.last.recall >= exact.last.recall)
    assert(exact.last.recall < exact.head.recall,
      s"exact recall should drop with T: ${exact.map(_.recall)}")
    // Exact skips the similar-token join — it must be the fastest variant
    // in aggregate.
    val meanSecs = Experiments.Variants.map { case (v, _, _) =>
      v -> rows.filter(_.variant == v).map(_.seconds).sum / ts.size
    }.toMap
    assert(meanSecs("exact-token-matching") < meanSecs("fuzzy-token-matching"),
      s"mean runtimes: $meanSecs")
  }
}
