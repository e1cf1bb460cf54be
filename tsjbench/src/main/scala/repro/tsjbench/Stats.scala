package repro.tsjbench

/** Order statistics used to summarise repeated measurements. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Quartiles as Python's `statistics.quantiles(xs, n=4)` (the default
    * 'exclusive' method) computes them, so spreads read the same here as in
    * the scripts that compare runs.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.size >= 2, "quartiles need at least two values")
    val s = xs.sorted.toIndexedSeq
    val m = s.size + 1
    def q(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), s.size - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }
}
