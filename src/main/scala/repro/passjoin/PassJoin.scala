package repro.passjoin

import repro.core.Nld

/** A chunk emitted by either side of the join: the signature key is
  * `(chunk, segIdx, lenY)`, `token` the string it came from, and `pos` the
  * chunk's start position in `token` (checked by `PassJoinSpec`).
  */
final case class Chunk(chunk: String, segIdx: Int, lenY: Int, pos: Int, token: String)

/** The PassJoin segment/substring signature scheme (Li et al., VLDB 2011),
  * adapted to NLD thresholds via the paper's Lemmas 7–9.
  *
  * For an indexed string `y` and segment budget `U = floor(2·t·|y|/(2−t))`
  * (Lemma 8 with `|y|` the longer side), `y` is partitioned into `U + 1`
  * even segments (Lemma 7: if `LD(x,y) <= U`, at least one segment of `y`
  * occurs as a substring of `x`, at a start position shifted by at most `U`).
  * A probe string `x` generates, for every admissible longer length `lenY`
  * (Lemma 9 length condition), the substrings matching each segment's length
  * inside the `±U` position window.
  */
object PassJoin {

  /** Even partition layout of a length-`len` string into `numSegs` segments:
    * `(segIdx, start, segLen)`. The first segments take `floor(len/numSegs)`
    * characters, the last `len mod numSegs` take one more. Both join sides
    * must use this same layout for a given `(len, numSegs)`.
    */
  def segmentLayout(len: Int, numSegs: Int): IndexedSeq[(Int, Int, Int)] = {
    require(numSegs >= 1 && numSegs <= math.max(1, len),
      s"invalid segment count $numSegs for length $len")
    val base = len / numSegs
    val rem = len % numSegs
    var start = 0
    (0 until numSegs).map { i =>
      val l = if (i < numSegs - rem) base else base + 1
      val out = (i, start, l)
      start += l
      out
    }
  }

  /** Indexed-side chunks of token `y`: its `U(|y|, t) + 1` even segments. */
  def indexChunks(y: String, t: Double): Seq[Chunk] = {
    val len = y.length
    if (len == 0) return Seq.empty
    val u = Nld.maxLdFor(len, len, t)
    segmentLayout(len, u + 1).map { case (i, start, l) =>
      Chunk(y.substring(start, start + l), i, len, start, y)
    }
  }

  /** Probe-side chunks of token `x`: for every admissible indexed length
    * `lenY >= |x|` (self-join: only the `|x| <= |y|` direction, Sec. III-G.1),
    * the substrings of `x` whose length matches segment `i` of the
    * `(lenY, U+1)` layout and whose start is within `±U` of that segment's
    * start.
    */
  def probeChunks(x: String, t: Double): Seq[Chunk] = {
    val lenX = x.length
    if (lenX == 0) return Seq.empty
    val out = Seq.newBuilder[Chunk]
    var lenY = lenX
    val maxLenY = Nld.maxLongerLen(lenX, t)
    // Every lenY up to maxLongerLen passes Lemma 9, as minShorterLen never
    // decreases.
    while (lenY <= maxLenY) {
      val u = Nld.maxLdFor(lenY, lenY, t)
      for ((i, segStart, segLen) <- segmentLayout(lenY, u + 1)) {
        val lo = math.max(0, segStart - u)
        val hi = math.min(lenX - segLen, segStart + u)
        var p = lo
        while (p <= hi) {
          out += Chunk(x.substring(p, p + segLen), i, lenY, p, x)
          p += 1
        }
      }
      lenY += 1
    }
    out.result()
  }
}
