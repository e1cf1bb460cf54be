package repro.core

/** Token pairs at NLD exactly `t = i/40`, for `i` in 1..20 (`t` = 0.025,
  * 0.05, …, 0.5): the pairs a threshold bound rounded one off would drop.
  */
object ThresholdPairs {

  val Steps: Seq[Int] = 1 to 20

  /** `i/40` as a double, the same double NLD evaluates to at that ratio. */
  def t(i: Int): Double = i / 40.0

  /** Every pair at NLD exactly `i/40` whose longer token has at most `maxLen`
    * characters: `k` characters appended to an `L`-character token, where
    * `k/(L+k) = t`, and `k` of its characters substituted, where
    * `2k/(2L+k) = t`. The new characters do not occur in the base token, so
    * `LD = k`. Each pair draws on its own block of CJK ideographs (letters to
    * the tokenizer), so tokens of different pairs share no character.
    */
  def pairs(i: Int, maxLen: Int): Seq[(String, String)] = {
    val appended = for {
      l <- 1 until maxLen if i * l % (40 - i) == 0
      k = i * l / (40 - i) if l + k <= maxLen
    } yield (l, k, true)
    val substituted = for {
      l <- 1 to maxLen if 2 * i * l % (80 - i) == 0
      k = 2 * i * l / (80 - i) if k >= 1
    } yield (l, k, false)
    (appended ++ substituted).zipWithIndex.map { case ((l, k, append), c) =>
      def ch(j: Int): Char = (0x4e00 + 52 * c + j).toChar
      val x = (0 until l).map(j => ch(j % 26)).mkString
      val edits = (0 until k).map(j => ch(26 + j % 26))
      val y =
        if (append) x + edits.mkString
        else (0 until k).foldLeft(x)((s, j) => s.updated(j * l / k, edits(j)))
      (x, y)
    }
  }
}
