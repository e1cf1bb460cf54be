package repro.tsjbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Nld
import repro.eval.BruteForce
import repro.names.NameGen
import repro.tsj.Tsj
import repro.tsj.Tsj.TsjConfig

class ReferenceSpec extends AnyFunSuite {

  private def fuzzy(n: Int, t: Double, m: Long = Long.MaxValue) =
    Workload("tiny", n, TsjConfig(t = t, maxTokenFreq = m))
  private def corpusOf(n: Int, seed: Long) =
    Corpus(NameGen.corpus(n, seed).map(a => (a.id, a.name)))

  test("fuzzy reference equals BruteForce.nsldSelfJoin when M drops no token") {
    for (t <- Seq(0.1, 0.225, 0.35); seed <- Seq(3L, 7L)) {
      val accounts = NameGen.corpus(500, seed)
      val ref = Reference.build(Corpus(accounts.map(a => (a.id, a.name))), fuzzy(500, t), threads = 2)
      val brute = BruteForce.nsldSelfJoin(accounts, t).map { case (a, b, _) => Reference.pack(a, b) }
      assert(ref.toSet == brute, s"t=$t seed=$seed")
      assert(ref.length == ref.distinct.length)
    }
  }

  test("similar tokens from deletion variants equal all-pairs Nld.nld") {
    val index = new TokenIndex(corpusOf(400, 5L), Long.MaxValue)
    for (t <- Seq(0.1, 0.225, 0.5)) {
      val adj = Reference.similarTokens(index, t)
      val toks = index.tokens
      val expected = (for (a <- toks.indices; b <- toks.indices
                           if a != b && Nld.nld(toks(a), toks(b)) <= t) yield (a, b)).toSet
      val got = (for (a <- adj.indices; b <- adj(a)) yield (a, b)).toSet
      assert(got == expected, s"t=$t")
    }
  }

  test("exact reference keeps only pairs sharing a token that survives M") {
    val c = corpusOf(600, 9L)
    val m = 3L
    val exact = Workload("tiny", 600, TsjConfig(t = 0.225, maxTokenFreq = m,
      matching = Tsj.ExactTokenMatching))
    val ref = Reference.build(c, exact, threads = 2).toSet
    val index = new TokenIndex(c, m)
    val ids = c.ids.zipWithIndex.toMap
    assert(ref.nonEmpty)
    ref.foreach { p =>
      val (i, j) = (ids(p >>> 32), ids(p & 0xffffffffL))
      assert(index.recordTokens(i).intersect(index.recordTokens(j)).nonEmpty)
      assert(c.nsld(c.ids(i), c.ids(j)) <= 0.225)
    }
    val unlimited = Reference.build(c, fuzzy(600, 0.225), threads = 2).toSet
    assert(ref.subsetOf(unlimited) && ref.size < unlimited.size)
  }
}
