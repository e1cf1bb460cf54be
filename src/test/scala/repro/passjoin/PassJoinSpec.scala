package repro.passjoin

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.{Levenshtein, Nld}

/** Tests for the PassJoin segment scheme: Lemma 7 and the signature
  * completeness property the distributed join relies on.
  */
class PassJoinSpec extends AnyFunSuite {

  private def randStr(rnd: Random, minLen: Int, maxLen: Int, alphabet: String = "abc"): String =
    (1 to (minLen + rnd.nextInt(maxLen - minLen + 1)))
      .map(_ => alphabet.charAt(rnd.nextInt(alphabet.length))).mkString

  test("segmentLayout covers the string exactly, in order") {
    for (len <- 1 to 20; k <- 1 to len) {
      val segs = PassJoin.segmentLayout(len, k)
      assert(segs.size == k)
      assert(segs.head._2 == 0)
      assert(segs.map(_._3).sum == len)
      segs.sliding(2).foreach {
        case Seq((_, s1, l1), (_, s2, _)) => assert(s2 == s1 + l1)
        case _ =>
      }
    }
  }

  test("segmentLayout is even: segment lengths differ by at most one") {
    for (len <- 1 to 25; k <- 1 to len) {
      val lens = PassJoin.segmentLayout(len, k).map(_._3)
      assert(lens.max - lens.min <= 1, s"len=$len k=$k lens=$lens")
    }
  }

  test("segmentLayout rejects invalid segment counts") {
    intercept[IllegalArgumentException](PassJoin.segmentLayout(3, 0))
    intercept[IllegalArgumentException](PassJoin.segmentLayout(3, 4))
  }

  test("Lemma 7: LD(x,y) <= U implies a segment of y is a substring of x") {
    val rnd = new Random(40)
    for (_ <- 1 to 1000) {
      val y = randStr(rnd, 3, 10)
      // Apply up to U random edits to y to obtain x.
      val u = 1 + rnd.nextInt(3)
      var x = y
      for (_ <- 1 to rnd.nextInt(u + 1)) {
        val p = rnd.nextInt(math.max(1, x.length))
        x = rnd.nextInt(3) match {
          case 0 => x.substring(0, p) + "abc".charAt(rnd.nextInt(3)) + x.substring(p)
          case 1 if x.length > 1 => x.substring(0, p) + x.substring(math.min(p + 1, x.length))
          case _ => x.substring(0, p) + "abc".charAt(rnd.nextInt(3)) + x.substring(math.min(p + 1, x.length))
        }
      }
      val ld = Levenshtein.distance(x, y)
      if (ld <= u && u + 1 <= y.length) {
        val segs = PassJoin.segmentLayout(y.length, u + 1)
        val hit = segs.exists { case (_, start, l) => x.contains(y.substring(start, start + l)) }
        assert(hit, s"x=$x y=$y u=$u ld=$ld")
      }
    }
  }

  for (t <- Seq(0.1, 0.2, 0.3, 0.5)) {
    test(s"signature completeness (t=$t): similar token pairs share a windowed chunk") {
      // The join's correctness hinges on: for every pair with NLD <= t and
      // |x| <= |y|, some index chunk of y equals some probe chunk of x with
      // the same (segIdx, lenY) and |posX − posY| <= U(lenY).
      val rnd = new Random(41 + (t * 100).toInt)
      var hits = 0
      for (_ <- 1 to 3000) {
        // Long-ish base with few random edits, so small thresholds fire too.
        val a = randStr(rnd, 4, 24)
        var b = a
        for (_ <- 0 until rnd.nextInt(4)) {
          val p = rnd.nextInt(math.max(1, b.length))
          b = rnd.nextInt(3) match {
            case 0 => b.substring(0, p) + "abc".charAt(rnd.nextInt(3)) + b.substring(p)
            case 1 if b.length > 1 => b.substring(0, p) + b.substring(math.min(p + 1, b.length))
            case _ => b.substring(0, p) + "abc".charAt(rnd.nextInt(3)) +
              b.substring(math.min(p + 1, b.length))
          }
        }
        val (x, y) = if (a.length <= b.length) (a, b) else (b, a)
        if (x != y && Nld.nld(x, y) <= t) {
          hits += 1
          val u = Nld.maxLdFor(y.length, y.length, t)
          val index = PassJoin.indexChunks(y, t)
          val probe = PassJoin.probeChunks(x, t)
          val shared = index.exists(ic => probe.exists(pc =>
            pc.chunk == ic.chunk && pc.segIdx == ic.segIdx && pc.lenY == ic.lenY &&
              math.abs(pc.pos - ic.pos) <= u))
          assert(shared, s"x=$x y=$y t=$t")
        }
      }
      assert(hits > 0, "the property must actually fire")
    }
  }

  test("indexChunks partitions the token into U+1 segments") {
    val y = "abcdefgh"
    val t = 0.25
    val u = Nld.maxLdFor(y.length, y.length, t)
    val chunks = PassJoin.indexChunks(y, t)
    assert(chunks.size == u + 1)
    assert(chunks.map(_.chunk).mkString == y)
    assert(chunks.forall(_.lenY == y.length))
    assert(chunks.forall(_.token == y))
  }

  test("probeChunks only proposes admissible longer lengths (Lemma 9)") {
    val rnd = new Random(42)
    for (_ <- 1 to 200) {
      val x = randStr(rnd, 1, 10)
      for (t <- Seq(0.1, 0.3)) {
        val chunks = PassJoin.probeChunks(x, t)
        assert(chunks.forall(c => c.lenY >= x.length))
        assert(chunks.forall(c => Nld.minShorterLen(c.lenY, t) <= x.length))
      }
    }
  }

  test("probeChunks substrings really occur at the recorded positions") {
    val rnd = new Random(43)
    for (_ <- 1 to 200) {
      val x = randStr(rnd, 1, 10)
      for (c <- PassJoin.probeChunks(x, 0.3)) {
        assert(x.substring(c.pos, c.pos + c.chunk.length) == c.chunk)
        assert(c.token == x)
      }
    }
  }

  test("empty strings produce no chunks") {
    assert(PassJoin.indexChunks("", 0.2).isEmpty)
    assert(PassJoin.probeChunks("", 0.2).isEmpty)
  }
}
