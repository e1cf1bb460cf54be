package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Tests for [[Nld]]: Def. 2, Lemmas 2, 3, and the threshold-conversion
  * Lemmas 8, 9, 10 that drive the join.
  */
class NldSpec extends AnyFunSuite {

  private def randStr(rnd: Random, maxLen: Int, alphabet: String = "abcd"): String =
    Seq.fill(rnd.nextInt(maxLen + 1))(alphabet.charAt(rnd.nextInt(alphabet.length))).mkString

  test("""paper example: NLD("thomson", "thompson") == 1/8""") {
    assert(math.abs(Nld.nld("thomson", "thompson") - 1.0 / 8) < 1e-12)
  }

  test("""paper example: NLD("alex", "alexa") == 1/5""") {
    assert(math.abs(Nld.nld("alex", "alexa") - 1.0 / 5) < 1e-12)
  }

  test("identity and empty-vs-empty") {
    assert(Nld.nld("", "") == 0.0)
    assert(Nld.nld("abc", "abc") == 0.0)
  }

  test("completely different strings of equal length have NLD = 2/3") {
    // LD = n, so 2n/(n+n+n) = 2/3.
    assert(math.abs(Nld.nld("aaa", "bbb") - 2.0 / 3) < 1e-12)
  }

  test("empty vs non-empty has NLD = 1 (Lemma 2 upper end)") {
    assert(Nld.nld("", "xyz") == 1.0)
  }

  test("Lemma 2: NLD in [0, 1] on random strings") {
    val rnd = new Random(10)
    for (_ <- 1 to 500) {
      val d = Nld.nld(randStr(rnd, 10), randStr(rnd, 10))
      assert(d >= 0.0 && d <= 1.0)
    }
  }

  test("symmetry") {
    val rnd = new Random(11)
    for (_ <- 1 to 200) {
      val x = randStr(rnd, 10); val y = randStr(rnd, 10)
      assert(Nld.nld(x, y) == Nld.nld(y, x))
    }
  }

  test("triangle inequality (Theorem 1) on random strings") {
    val rnd = new Random(12)
    for (_ <- 1 to 500) {
      val x = randStr(rnd, 8, "ab"); val y = randStr(rnd, 8, "ab"); val z = randStr(rnd, 8, "ab")
      assert(Nld.nld(x, z) <= Nld.nld(x, y) + Nld.nld(y, z) + 1e-12, s"($x, $y, $z)")
    }
  }

  test("Lemma 3: 1 − |x|/|y| <= NLD <= 2/(|x|/|y| + 2) for |y| >= |x| > 0") {
    val rnd = new Random(13)
    for (_ <- 1 to 500) {
      val a = randStr(rnd, 10); val b = randStr(rnd, 10)
      val (x, y) = if (a.length <= b.length) (a, b) else (b, a)
      if (y.nonEmpty) {
        val d = Nld.nld(x, y)
        val r = x.length.toDouble / y.length
        assert(d >= 1.0 - r - 1e-12, s"($x, $y)")
        assert(d <= 2.0 / (r + 2) + 1e-12, s"($x, $y)")
      }
    }
  }

  for (t <- Seq(0.05, 0.1, 0.2, 0.3, 0.5)) {
    test(s"Lemma 8 (t=$t): NLD <= t implies LD <= maxLdFor") {
      val rnd = new Random((t * 1000).toInt)
      for (_ <- 1 to 500) {
        val x = randStr(rnd, 12); val y = randStr(rnd, 12)
        if (Nld.nld(x, y) <= t) {
          val ld = Levenshtein.distance(x, y)
          assert(ld <= Nld.maxLdFor(x.length, y.length, t), s"($x, $y)")
        }
      }
    }

    test(s"Lemma 8 (t=$t): segment bound uses the longer length") {
      val rnd = new Random((t * 2000).toInt)
      for (_ <- 1 to 500) {
        val x = randStr(rnd, 12); val y = randStr(rnd, 12)
        if (Nld.nld(x, y) <= t) {
          val longer = math.max(x.length, y.length)
          assert(Levenshtein.distance(x, y) <= Nld.maxLdFor(longer, longer, t))
        }
      }
    }

    test(s"Lemma 9 (t=$t): NLD <= t implies ceil((1−t)·|y|) <= |x| for |x| <= |y|") {
      val rnd = new Random((t * 3000).toInt)
      for (_ <- 1 to 500) {
        val a = randStr(rnd, 12); val b = randStr(rnd, 12)
        val (x, y) = if (a.length <= b.length) (a, b) else (b, a)
        if (Nld.nld(x, y) <= t)
          assert(Nld.minShorterLen(y.length, t) <= x.length, s"($x, $y)")
      }
    }

    test(s"Lemma 10 (t=$t): NLD > t implies LD > ldLowerBoundExclusive") {
      val rnd = new Random((t * 4000).toInt)
      for (_ <- 1 to 500) {
        val x = randStr(rnd, 12); val y = randStr(rnd, 12)
        if (Nld.nld(x, y) > t) {
          assert(Levenshtein.distance(x, y) > Nld.maxLdFor(x.length, y.length, t),
                 s"($x, $y)")
        }
      }
    }

    test(s"maxLongerLen (t=$t) is the exact inverse of the Lemma 9 condition") {
      for (lenX <- 1 to 30) {
        val maxY = Nld.maxLongerLen(lenX, t)
        assert(Nld.minShorterLen(maxY, t) <= lenX, s"lenX=$lenX maxY=$maxY admissible")
        assert(Nld.minShorterLen(maxY + 1, t) > lenX, s"lenX=$lenX maxY=$maxY maximal")
      }
    }
  }

  test("every bound admits the pairs at NLD exactly t (t = 0.025..0.5, lengths < 400)") {
    val missed = for {
      i <- ThresholdPairs.Steps
      t = ThresholdPairs.t(i)
      (x, y) <- ThresholdPairs.pairs(i, maxLen = 399)
      (lo, hi, ld) = (math.min(x.length, y.length), math.max(x.length, y.length),
                      Levenshtein.distance(x, y))
      bound <- Seq(
        "construction" -> (Nld.fromLd(lo, hi, ld) == t),
        "maxLdFor" -> (ld <= Nld.maxLdFor(x.length, y.length, t)),
        "maxLdFor(|y|, |y|)" -> (ld <= Nld.maxLdFor(hi, hi, t)),
        "minShorterLen" -> (Nld.minShorterLen(hi, t) <= lo),
        "maxLongerLen" -> (Nld.maxLongerLen(lo, t) >= hi),
      ).collect { case (name, false) => s"$name(t=$t, |x|=$lo, |y|=$hi, LD=$ld)" }
    } yield bound
    assert(missed.isEmpty, missed.mkString("\n", "\n", ""))
  }

  // PassJoin.probeChunks relies on this to skip a per-length Lemma 9 check.
  test("minShorterLen never decreases in the longer length (t = 0.025..0.5, lengths <= 400)") {
    for (i <- ThresholdPairs.Steps; t = ThresholdPairs.t(i); len <- 1 to 400)
      assert(Nld.minShorterLen(len - 1, t) <= Nld.minShorterLen(len, t), s"t=$t |y|=$len")
  }

  test("fromLd is consistent with nld") {
    val rnd = new Random(14)
    for (_ <- 1 to 300) {
      val x = randStr(rnd, 10); val y = randStr(rnd, 10)
      val ld = Levenshtein.distance(x, y)
      assert(math.abs(Nld.fromLd(x.length, y.length, ld) - Nld.nld(x, y)) < 1e-12)
    }
  }

  test("within agrees with direct comparison") {
    val rnd = new Random(15)
    for (_ <- 1 to 500) {
      val x = randStr(rnd, 10); val y = randStr(rnd, 10)
      for (t <- Seq(0.05, 0.15, 0.25, 0.45))
        assert(Nld.within(x, y, t) == (Nld.nld(x, y) <= t), s"($x, $y, $t)")
    }
  }

  test("maxLdFor rejects invalid thresholds") {
    intercept[IllegalArgumentException](Nld.maxLdFor(3, 3, 1.0))
    intercept[IllegalArgumentException](Nld.maxLdFor(3, 3, -0.1))
  }
}
