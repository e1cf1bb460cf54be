package repro.eval

import repro.SparkSpec
import repro.tsj.Tsj.TsjConfig

/** Small-scale smoke tests of the figure harnesses: every experiment must run
  * end-to-end and satisfy its shape invariants at test scale (the bench
  * suites run them at full scale).
  */
class ExperimentsSpec extends SparkSpec {

  test("fig1 harness runs both dedup strategies on every worker count") {
    val rows = Experiments.fig1(spark, n = 300, seed = 1, t = 0.1, m = 50,
                                workers = Seq(2, 4))
    assert(rows.size == 4)
    assert(rows.map(_.dedup).distinct.size == 2)
    // Both strategies must agree on the result size at each worker count.
    rows.groupBy(_.workers).foreach { case (_, rs) =>
      assert(rs.map(_.pairs).distinct.size == 1)
    }
  }

  test("sweepT harness: recall semantics and monotone pair counts") {
    val rows = Experiments.sweep(spark, n = 300, seed = 2, params = Seq(0.1, 0.25))(
      t => TsjConfig(t = t, maxTokenFreq = Long.MaxValue))
    assert(rows.size == 6)
    val fuzzy = rows.filter(_.variant == "fuzzy-token-matching")
    assert(fuzzy.forall(_.recall == 1.0))
    // More pairs at the larger threshold for the exact reference.
    assert(fuzzy.maxBy(_.param).pairs >= fuzzy.minBy(_.param).pairs)
    // Approximations cannot exceed recall 1.
    assert(rows.forall(_.recall <= 1.0 + 1e-12))
  }

  test("sweepM harness: pair counts are monotone in M") {
    val rows = Experiments.sweep(spark, n = 300, seed = 3, params = Seq(5.0, 50.0))(
      m => TsjConfig(t = 0.2, maxTokenFreq = m.toLong))
    assert(rows.size == 6)
    for (v <- rows.map(_.variant).distinct) {
      val byM = rows.filter(_.variant == v).sortBy(_.param)
      assert(byM.head.pairs <= byM.last.pairs, s"variant $v not monotone in M")
    }
  }

  test("fig6 harness: NSLD dominates the fuzzy set measures on AUC") {
    val rows = Experiments.fig6(nPairs = 1200, seed = 4)
    assert(rows.size == 4)
    val byName = rows.map(r => r.measure -> r.auc).toMap
    assert(byName.keySet == Set("NSLD", "weighted FJaccard", "weighted FCosine",
                                "weighted FDice"))
    val nsld = byName("NSLD")
    assert(nsld > 0.8, s"NSLD AUC unexpectedly low: $nsld")
    byName.filterNot(_._1 == "NSLD").foreach { case (m, a) =>
      assert(nsld >= a - 1e-9, s"NSLD ($nsld) must dominate $m ($a)")
    }
  }

  test("fig7 harness: TSJ and HMJ agree on the result size") {
    val rows = Experiments.fig7(spark, n = 250, seed = 5, t = 0.1, m = Long.MaxValue,
                                workers = Seq(4), timeoutSec = 300)
    assert(rows.size == 2)
    val tsj = rows.find(_.algo == "TSJ").get
    val hmj = rows.find(_.algo == "HMJ").get
    assert(hmj.finished)
    assert(tsj.pairs == hmj.pairs, "both joins are exact — counts must match")
  }

  test("Figures rejects an unknown figure id, listing the valid ids") {
    val e = intercept[IllegalArgumentException](repro.jobs.Figures.main(Array("fig5")))
    assert(e.getMessage.contains("'fig5'"))
    assert(e.getMessage.contains("fig1, fig2, fig3, fig6, fig7"))
  }

  test("runWithTimeout returns None when the action exceeds the budget") {
    val out = Experiments.runWithTimeout(spark, timeoutSec = 1, "slow") {
      Thread.sleep(5000); 42
    }
    assert(out.isEmpty)
  }

  test("runWithTimeout passes results through when fast enough") {
    val out = Experiments.runWithTimeout(spark, timeoutSec = 30, "fast") { 42 }
    assert(out.contains(42))
  }

  test("markdownTable renders a well-formed table") {
    val s = Experiments.markdownTable(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(0) == "| a | b |")
    assert(lines(1) == "| --- | --- |")
  }

  test("withWorkers restores the previous shuffle-partitions setting") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    Experiments.withWorkers(spark, 3) {
      assert(spark.conf.get(key) == "3")
    }
    assert(spark.conf.get(key) == before)
  }
}
