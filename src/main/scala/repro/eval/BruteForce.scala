package repro.eval

import repro.core.{TokenDistances, Tokenizer}
import repro.names.Account

/** Driver-side exact all-pairs NSLD self-join — the ground truth against
  * which TSJ (fuzzy mode must match it exactly) and HMJ are tested, and the
  * recall denominator for the approximation studies.
  */
object BruteForce {

  /** All pairs with `NSLD <= t`, as `(id1, id2, nsld)` with `id1 < id2`.
    * Applies only the provably-safe Lemma 6 length filter before the exact
    * SLD computation. O(n²) — test/bench scale only.
    */
  def nsldSelfJoin(accounts: Seq[Account], t: Double): Set[(Long, Long, Double)] = {
    val recs = accounts
      .map(a => Tokenizer.record(a.id, a.name))
      .filter(_.tokens.nonEmpty)
      .toIndexedSeq
    val out = Set.newBuilder[(Long, Long, Double)]
    var i = 0
    while (i < recs.length) {
      val a = recs(i)
      var j = i + 1
      while (j < recs.length) {
        val b = recs(j)
        val lo = math.min(a.aggLen, b.aggLen).toDouble
        val hi = math.max(a.aggLen, b.aggLen).toDouble
        if (lo / hi >= (1.0 - t) - 1e-9) {
          val d = TokenDistances.nsld(a.tokens, b.tokens)
          if (d <= t) out += ((math.min(a.id, b.id), math.max(a.id, b.id), d))
        }
        j += 1
      }
      i += 1
    }
    out.result()
  }
}
