package repro.bench

import repro.SparkSpec
import repro.eval.Figure.Fig7

/** Fig. 7: TSJ vs the metric-space baseline HMJ, runtime vs #workers.
  *
  * Paper: HMJ did not finish in reasonable time on the smallest config; on
  * the rest TSJ was 12–15× faster — the dense name clusters ruin the
  * metric-space partitioning while TSJ works in the token domain.
  */
class Fig7TsjVsHmjBench extends SparkSpec {

  test("fig 7: TSJ vs HMJ runtime vs workers") {
    val n = Fig7.defaultSize
    val rows = Fig7.rows(spark, n)
    println(Fig7.report(n, rows))

    // Shape checks: wherever HMJ finished it must agree with TSJ (both are
    // exact under M=∞; under the M cutoff TSJ may return slightly fewer, so
    // compare TSJ-without-cutoff semantics via ratio bounds instead).
    val tsj = rows.filter(_.algo == "TSJ")
    val hmj = rows.filter(_.algo == "HMJ").filter(_.finished)
    assert(tsj.nonEmpty)
    assert(hmj.nonEmpty, "HMJ should finish on at least one config")
    // TSJ must be substantially faster than HMJ on every finished config.
    for (h <- hmj; tr <- tsj.find(_.workers == h.workers)) {
      assert(tr.seconds < h.seconds,
        s"TSJ (${tr.seconds}s) should beat HMJ (${h.seconds}s) at w=${h.workers}")
    }
    val speedups = for {
      h <- hmj; tr <- tsj.find(_.workers == h.workers)
    } yield h.seconds / tr.seconds
    println(f"\nTSJ-over-HMJ speedups: ${speedups.map(s => f"$s%.1f").mkString(", ")}")
    assert(speedups.max >= 3.0, s"expected a clear HMJ gap, got $speedups")
  }
}
