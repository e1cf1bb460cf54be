package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Figure.Fig6

/** Fig. 6: ROC of NSLD vs weighted FJaccard / FCosine / FDice when predicting
  * fraud from the distance between the old and new names on an account.
  *
  * Paper (10,000 accounts, half legit / half fraud): NSLD's ROC dominates all
  * three weighted set-based fuzzy measures.
  */
class Fig6RocBench extends AnyFunSuite {

  test("fig 6: ROC/AUC of the four distance measures") {
    val n = Fig6.defaultSize
    val rows = Fig6.rows(n)
    println(Fig6.report(n, rows))

    val byName = rows.map(r => r.measure -> r.auc).toMap
    val nsld = byName("NSLD")
    assert(nsld > 0.85, s"NSLD AUC too low: $nsld")
    byName.filterNot(_._1 == "NSLD").foreach { case (m, a) =>
      assert(nsld >= a, s"NSLD ($nsld) must dominate $m ($a)")
    }
  }
}
