package repro.core

/** Setwise Levenshtein Distance (Def. 3) and Normalized SLD (Def. 4), plus
  * the greedy-token-aligning approximation of Sec. III-G.5.
  *
  * `SLD(x^t, y^t)` pads the smaller token multiset with empty tokens to
  * `k = max(m, n)` tokens, builds the complete token bigraph with LD edge
  * weights, and takes the minimum-weight perfect matching (the assignment
  * problem, solved with the Hungarian algorithm). Complexity
  * O(L(x)·L(y) + k³). The greedy variant repeatedly picks the globally
  * cheapest remaining edge instead — O(L(x)·L(y) + k² log k²) — and can
  * overestimate SLD (never underestimate).
  */
object TokenDistances {

  /** LD cost matrix of the padded token bigraph; rows = shorter side. */
  private def costMatrix(xs: Seq[String], ys: Seq[String]): Array[Array[Int]] = {
    val (rows, cols) = if (xs.size <= ys.size) (xs, ys) else (ys, xs)
    val k = cols.size
    val r = rows.toIndexedSeq
    val c = cols.toIndexedSeq
    Array.tabulate(r.size.max(k), k) { (i, j) =>
      val a = if (i < r.size) r(i) else ""
      Levenshtein.distance(a, c(j))
    }
  }

  /** Exact SLD via Hungarian min-cost perfect matching. */
  def sld(xs: Seq[String], ys: Seq[String]): Int = {
    if (xs.isEmpty && ys.isEmpty) return 0
    if (xs.isEmpty) return ys.iterator.map(_.length).sum
    if (ys.isEmpty) return xs.iterator.map(_.length).sum
    Hungarian.minCost(costMatrix(xs, ys))
  }

  /** Greedy-token-aligning approximation of SLD (upper bound on SLD).
    * Edges are packed into longs `(weight << 40) | (i << 20) | j` so the
    * sort is primitive and allocation-free.
    */
  def sldGreedy(xs: Seq[String], ys: Seq[String]): Int = {
    if (xs.isEmpty && ys.isEmpty) return 0
    val k = math.max(xs.size, ys.size)
    val a = xs.padTo(k, "").toIndexedSeq
    val b = ys.padTo(k, "").toIndexedSeq
    val edges = new Array[Long](k * k)
    var i = 0
    while (i < k) {
      var j = 0
      while (j < k) {
        val w = Levenshtein.distance(a(i), b(j)).toLong
        edges(i * k + j) = (w << 40) | (i.toLong << 20) | j.toLong
        j += 1
      }
      i += 1
    }
    java.util.Arrays.sort(edges)
    val usedA = new Array[Boolean](k)
    val usedB = new Array[Boolean](k)
    var total = 0
    var matched = 0
    var e = 0
    while (matched < k && e < edges.length) {
      val packed = edges(e)
      val ei = ((packed >> 20) & 0xfffff).toInt
      val ej = (packed & 0xfffff).toInt
      if (!usedA(ei) && !usedB(ej)) {
        usedA(ei) = true; usedB(ej) = true
        total += (packed >> 40).toInt; matched += 1
      }
      e += 1
    }
    total
  }

  /** NSLD from a known SLD value (Def. 4). */
  def nsldFromSld(aggLenX: Int, aggLenY: Int, sldVal: Int): Double =
    if (aggLenX == 0 && aggLenY == 0) 0.0
    else 2.0 * sldVal / (aggLenX + aggLenY + sldVal)

  /** Exact NSLD (Def. 4). */
  def nsld(xs: Seq[String], ys: Seq[String]): Double =
    nsldFromSld(Tokenizer.aggLength(xs), Tokenizer.aggLength(ys), sld(xs, ys))

  /** NSLD under greedy-token-aligning (upper bound on NSLD). */
  def nsldGreedy(xs: Seq[String], ys: Seq[String]): Double =
    nsldFromSld(Tokenizer.aggLength(xs), Tokenizer.aggLength(ys), sldGreedy(xs, ys))

  /** Lower bound on SLD from token-length lists only (Sec. III-E.2).
    *
    * `LD(a, b) >= | |a| − |b| |`, so the min-cost matching of the length
    * lists lower-bounds the min-cost matching of the true LD weights. With
    * absolute-difference costs on a line, pairing both length lists in
    * sorted order (padded with zeros) is optimal, so the bound is computed
    * in O(k log k) without the Hungarian algorithm.
    */
  def sldLengthLowerBound(lenXs: Seq[Int], lenYs: Seq[Int]): Int = {
    val k = math.max(lenXs.size, lenYs.size)
    val a = lenXs.padTo(k, 0).sorted
    val b = lenYs.padTo(k, 0).sorted
    var i = 0; var s = 0
    while (i < k) { s += math.abs(a(i) - b(i)); i += 1 }
    s
  }

  /** Lower bound on NSLD implied by [[sldLengthLowerBound]]; monotone in the
    * SLD bound, so it is a valid pruning bound: if it exceeds T the pair
    * cannot satisfy `NSLD <= T`.
    */
  def nsldLengthLowerBound(lenXs: Seq[Int], lenYs: Seq[Int]): Double = {
    val lb = sldLengthLowerBound(lenXs, lenYs)
    nsldFromSld(lenXs.sum, lenYs.sum, lb)
  }

  /** The candidate filters (Sec. III-E): Lemma 6 at `SLD >= |L(a) − L(b)|`,
    * then the token-length histogram bound. Both evaluate NSLD at a lower
    * bound on SLD, so a pair they reject has `NSLD(a, b) > t`.
    */
  def passesFilters(a: Tokenized, b: Tokenized, t: Double): Boolean =
    nsldFromSld(a.aggLen, b.aggLen, math.abs(a.aggLen - b.aggLen)) <= t &&
      nsldLengthLowerBound(a.tokens.map(_.length), b.tokens.map(_.length)) <= t
}
