package repro.core

/** Normalized Levenshtein Distance (Def. 2, after Li & Liu 2007) and the
  * paper's threshold-conversion lemmas used by the join machinery.
  *
  * `NLD(x, y) = 2·LD(x, y) / (|x| + |y| + LD(x, y))`, a metric in [0, 1].
  */
object Nld {

  /** Exact NLD. Two empty strings are at distance 0. */
  def nld(x: String, y: String): Double =
    fromLd(x.length, y.length, Levenshtein.distance(x, y))

  /** NLD computed from a known LD value. The one definition of
    * `2d / (Lx + Ly + d)`: NSLD (Def. 4) applies it to aggregate lengths and
    * SLD.
    */
  def fromLd(lenX: Int, lenY: Int, ld: Int): Double =
    if (lenX == 0 && lenY == 0) 0.0 else 2.0 * ld / (lenX + lenY + ld)

  /** Lemma 8, exact: the largest LD compatible with `NLD <= t` for the given
    * lengths, i.e. the largest `d <= max(|x|, |y|)` with
    * `fromLd(|x|, |y|, d) <= t`: `floor(t·(|x|+|y|) / (2−t))`, never above
    * the lemma's `floor(2·t·max(|x|,|y|) / (2−t))`. Searching on the
    * predicate verification applies, instead of rounding a closed form in
    * doubles, keeps the pairs at exactly `t`.
    *
    * With `|x| = |y| = L` it is PassJoin's segment budget
    * `U(L) = floor(2·t·L / (2−t))`. It is also Lemma 10's bound: `NLD > t`
    * implies `LD > maxLdFor(|x|, |y|, t)`, and the paper's
    * `floor(t·|y| / (2−t))` never exceeds it.
    */
  def maxLdFor(lenX: Int, lenY: Int, t: Double): Int = {
    require(t >= 0 && t < 1, s"threshold out of range: $t")
    lastTrue(0, math.max(lenX, lenY))(d => fromLd(lenX, lenY, d) <= t)
  }

  /** Lemma 9 length condition: with `|x| <= |y|` and `NLD(x,y) <= t`, the
    * shorter length must satisfy `ceil((1−t)·|y|) <= |x|` — the smallest `|x|`
    * whose pure-insertion distance `fromLd(|x|, |y|, |y|−|x|)` is `<= t`.
    * Never decreases as `|y|` grows.
    */
  def minShorterLen(longerLen: Int, t: Double): Int =
    longerLen - lastTrue(0, longerLen)(k => fromLd(longerLen - k, longerLen, k) <= t)

  /** Largest longer-length `|y|` a shorter string of length `lenX` may pair
    * with under `NLD <= t` (inverse of Lemma 9): all `|y|` with
    * `ceil((1−t)·|y|) <= lenX`.
    */
  def maxLongerLen(lenX: Int, t: Double): Int = {
    var hi = if (t >= 1.0) Int.MaxValue else math.floor(lenX / (1.0 - t)).toInt + 1
    while (minShorterLen(hi, t) > lenX) hi -= 1
    hi
  }

  /** Largest `k` in `[lo, hi]` with `ok(k)`, for `ok` true at `lo` and
    * monotone (true up to some point, false after it).
    */
  private def lastTrue(lo: Int, hi: Int)(ok: Int => Boolean): Int = {
    var (a, b) = (lo, hi)
    while (a < b) {
      val mid = a + (b - a + 1) / 2
      if (ok(mid)) a = mid else b = mid - 1
    }
    a
  }

  /** True iff `NLD(x, y) <= t`, using the banded LD for early abandon. */
  def within(x: String, y: String, t: Double): Boolean = {
    val u = maxLdFor(x.length, y.length, t)
    val ld = Levenshtein.bounded(x, y, u)
    ld <= u && fromLd(x.length, y.length, ld) <= t
  }
}
