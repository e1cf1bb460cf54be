package repro.tsj

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.core.{Nld, ThresholdPairs}
import repro.eval.{BruteForce, Experiments}
import repro.hmj.Hmj
import repro.names.{Account, NameGen}
import repro.passjoin.TokenNldJoin
import repro.tsj.Tsj._

/** End-to-end Spark tests of the TSJ framework against the driver-side brute
  * force: fuzzy mode must be exact; approximations must keep precision 1;
  * the two dedup strategies must agree.
  */
class TsjSpec extends SparkSpec {

  private val NoCutoff = Long.MaxValue

  private def df(accounts: Seq[Account]): DataFrame = {
    import spark.implicits._
    spark.createDataset(accounts).toDF()
  }

  private def pairsOf(out: DataFrame): Set[(Long, Long)] =
    out.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def pairsWithDist(out: DataFrame): Set[(Long, Long, Double)] =
    out.collect().map { r =>
      (r.getLong(0), r.getLong(1), math.rint(r.getDouble(2) * 1e9) / 1e9)
    }.toSet

  private def bruteSet(accounts: Seq[Account], t: Double): Set[(Long, Long, Double)] =
    BruteForce.nsldSelfJoin(accounts, t)
      .map { case (a, b, d) => (a, b, math.rint(d * 1e9) / 1e9) }

  // --- Exactness of fuzzy-token-matching ---

  for ((t, seed, n) <- Seq((0.1, 70L, 400), (0.2, 71L, 300), (0.3, 72L, 250),
                           (0.25, 73L, 350), (0.5, 74L, 200))) {
    test(s"fuzzy mode equals brute force exactly (t=$t, n=$n, seed=$seed)") {
      val accounts = NameGen.corpus(n, seed)
      val cfg = TsjConfig(t = t, maxTokenFreq = NoCutoff)
      val got = pairsWithDist(Tsj.selfJoin(spark, df(accounts), cfg))
      assert(got == bruteSet(accounts, t))
    }
  }

  test("fuzzy mode is exact on a corpus with heavy rings") {
    val accounts = NameGen.corpus(300, 75L, ringFraction = 0.8, meanRingSize = 8)
    val cfg = TsjConfig(t = 0.2, maxTokenFreq = NoCutoff)
    assert(pairsWithDist(Tsj.selfJoin(spark, df(accounts), cfg)) == bruteSet(accounts, 0.2))
  }

  test("fuzzy mode finds the paper's adversarial name edits") {
    val accounts = Seq(
      Account(1, "Barak Obama"),
      Account(2, "Obamma, Boraak"),
      Account(3, "Burak Ubama"),
      Account(4, "Completely Different"),
    )
    val cfg = TsjConfig(t = 0.3, maxTokenFreq = NoCutoff)
    val got = pairsOf(Tsj.selfJoin(spark, df(accounts), cfg))
    assert(got.contains((1L, 3L)), "small per-token edits must be caught")
    assert(!got.exists(p => p._1 == 4L || p._2 == 4L))
    assert(got == bruteSet(accounts, 0.3).map(x => (x._1, x._2)))
  }

  // --- Dedup strategies ---

  for ((strategyName, strategy) <- Seq("grouping-on-one-string" -> GroupingOnOneString,
                                       "grouping-on-both-strings" -> GroupingOnBothStrings)) {
    test(s"$strategyName returns each pair exactly once") {
      val accounts = NameGen.corpus(300, 76L, ringFraction = 0.6)
      val cfg = TsjConfig(t = 0.2, maxTokenFreq = NoCutoff, dedup = strategy)
      val rows = Tsj.selfJoin(spark, df(accounts), cfg)
        .select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1)))
      assert(rows.length == rows.distinct.length, "duplicate pairs in output")
      assert(rows.forall { case (a, b) => a < b })
    }
  }

  test("both dedup strategies produce identical results") {
    val accounts = NameGen.corpus(350, 77L, ringFraction = 0.5)
    for (matching <- Seq(FuzzyTokenMatching, ExactTokenMatching); t <- Seq(0.1, 0.25)) {
      val one = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(t = t,
        maxTokenFreq = NoCutoff, matching = matching, dedup = GroupingOnOneString)))
      val both = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(t = t,
        maxTokenFreq = NoCutoff, matching = matching, dedup = GroupingOnBothStrings)))
      assert(one == both)
      if (matching == FuzzyTokenMatching) assert(both == bruteSet(accounts, t))
    }
  }

  test("chooseKeyValue is deterministic and order-insensitive") {
    for (i <- 0L to 50L; j <- (i + 1) to 51L) {
      val kv1 = Tsj.chooseKeyValue(i, j)
      val kv2 = Tsj.chooseKeyValue(j, i)
      assert(Set(kv1._1, kv1._2) == Set(i, j))
      assert(kv1 == kv2, s"($i, $j): $kv1 vs $kv2")
    }
  }

  test("chooseKeyValue balances key roles roughly evenly") {
    val picks = for (i <- 0L until 200L; j <- (i + 1) until 200L by 13)
      yield if (Tsj.chooseKeyValue(i, j)._1 == i) 1 else 0
    val frac = picks.sum.toDouble / picks.size
    assert(frac > 0.3 && frac < 0.7, s"key-role fraction $frac")
  }

  // --- Approximations: precision 1, recall <= 1 ---

  for ((name, matching, aligning) <- Seq(
         ("exact-token-matching", ExactTokenMatching, HungarianAligning),
         ("greedy-token-aligning", FuzzyTokenMatching, GreedyAligning))) {
    test(s"$name has precision 1.0 (subset of brute force)") {
      val accounts = NameGen.corpus(350, 78L, ringFraction = 0.6)
      for (t <- Seq(0.1, 0.3)) {
        val cfg = TsjConfig(t = t, maxTokenFreq = NoCutoff,
                            matching = matching, aligning = aligning)
        val got = pairsOf(Tsj.selfJoin(spark, df(accounts), cfg))
        val truth = bruteSet(accounts, t).map(x => (x._1, x._2))
        assert(got.subsetOf(truth), s"t=$t spurious=${got.diff(truth).take(3)}")
      }
    }
  }

  test("greedy-token-aligning recall is high and exact-token-matching recall drops with t") {
    val accounts = NameGen.corpus(500, 79L, ringFraction = 0.7)
    val d = df(accounts)
    for (t <- Seq(0.1, 0.3)) {
      val fuzzy = pairsOf(Tsj.selfJoin(spark, d, TsjConfig(t, NoCutoff)))
      val greedy = pairsOf(Tsj.selfJoin(spark, d,
        TsjConfig(t, NoCutoff, aligning = GreedyAligning)))
      val exact = pairsOf(Tsj.selfJoin(spark, d,
        TsjConfig(t, NoCutoff, matching = ExactTokenMatching)))
      assert(greedy.subsetOf(fuzzy) && exact.subsetOf(fuzzy))
      if (fuzzy.nonEmpty) {
        assert(greedy.size.toDouble / fuzzy.size >= 0.95, s"greedy recall too low at t=$t")
        assert(exact.size <= fuzzy.size)
      }
    }
  }

  test("greedy distances never underestimate the exact NSLD") {
    val accounts = NameGen.corpus(250, 80L, ringFraction = 0.7)
    val exactD = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(0.3, NoCutoff)))
      .map(x => (x._1, x._2) -> x._3).toMap
    val greedyD = pairsWithDist(Tsj.selfJoin(spark, df(accounts),
      TsjConfig(0.3, NoCutoff, aligning = GreedyAligning)))
    greedyD.foreach { case (a, b, d) =>
      assert(d >= exactD((a, b)) - 1e-9)
    }
  }

  // --- Pairs exactly at the threshold ---

  test("the token NLD join and fuzzy mode keep pairs at NLD and NSLD exactly t") {
    import spark.implicits._
    // Few shuffle partitions: the inputs are tiny and there are 40 joins.
    val mismatches = ThresholdPairs.Steps.flatMap(i => Experiments.withWorkers(spark, 4) {
      val t = ThresholdPairs.t(i)
      // Longer tokens at most 40 characters keep the PassJoin chunk count small.
      val pairs = ThresholdPairs.pairs(i, maxLen = 40)
      val tokens = pairs.flatMap { case (x, y) => Seq(x, y) }
      val similar = TokenNldJoin.selfJoin(spark, tokens.toDF("token"), t)
        .select("t1", "t2").as[(String, String)].collect().toSet
      val bruteTokens =
        (for (a <- tokens; b <- tokens if a < b && Nld.nld(a, b) <= t) yield (a, b)).toSet
      assert(pairs.forall { case (x, y) => bruteTokens(if (x < y) (x, y) else (y, x)) })

      // Each pair as two one-token names (NSLD = NLD = t) and, split in the
      // middle, as two two-token names (NSLD = t for appended characters).
      val names = tokens ++ pairs.filter(_._1.length >= 2).flatMap { case (x, y) =>
        val m = x.length / 2
        Seq(s"${x.take(m)} ${x.drop(m)}", s"${y.take(m)} ${y.drop(m)}")
      }
      val accounts = names.zipWithIndex.map { case (name, id) => Account(id, name) }
      val got = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(t, NoCutoff)))
      val truth = bruteSet(accounts, t)
      def lengths(ps: Set[(String, String)]) = ps.map(p => (p._1.length, p._2.length))
      Seq(
        Option.when(similar != bruteTokens)(
          s"token join at t=$t misses lengths ${lengths(bruteTokens -- similar)}"),
        Option.when(got != truth)(
          s"fuzzy TSJ at t=$t misses ${(truth -- got).size} and adds ${(got -- truth).size} pairs"),
      ).flatten
    })
    assert(mismatches.isEmpty, mismatches.mkString("\n", "\n", ""))
  }

  // --- Max-frequency cutoff M ---

  test("M cutoff only removes pairs (monotone in M)") {
    val accounts = NameGen.corpus(400, 82L, ringFraction = 0.5)
    val d = df(accounts)
    val p5 = pairsOf(Tsj.selfJoin(spark, d, TsjConfig(0.2, maxTokenFreq = 5)))
    val p20 = pairsOf(Tsj.selfJoin(spark, d, TsjConfig(0.2, maxTokenFreq = 20)))
    val pAll = pairsOf(Tsj.selfJoin(spark, d, TsjConfig(0.2, maxTokenFreq = NoCutoff)))
    assert(p5.subsetOf(p20))
    assert(p20.subsetOf(pAll))
  }

  test("a corpus dominated by one popular token collapses under small M") {
    // At t = 0.2 the six similar pairs, such as "john t121212" and
    // "john t212121", are linked only through "john".
    val accounts = (0L until 50L).map(i => Account(i, s"john t$i$i$i"))
    val d = df(accounts)
    val withCutoff = pairsOf(Tsj.selfJoin(spark, d, TsjConfig(0.2, maxTokenFreq = 10)))
    val noCutoff = pairsWithDist(Tsj.selfJoin(spark, d, TsjConfig(0.2, maxTokenFreq = NoCutoff)))
    assert(withCutoff.isEmpty, "all candidate pairs hinge on the popular token")
    assert(noCutoff.nonEmpty)
    assert(noCutoff == bruteSet(accounts, 0.2))
  }

  test("M also removes similar-token links") {
    // NLD(marianne, mariane) = 0.125. Each pair is linked by the token three
    // names hold, as their shared token or as the fourth name's similar token.
    for ((many, one) <- Seq("marianne" -> "mariane", "mariane" -> "marianne")) {
      val accounts = (Seq.fill(3)(many) :+ one).zipWithIndex
        .map { case (name, id) => Account(id, name) }
      val d = df(accounts)
      val truth = bruteSet(accounts, 0.15)
      assert(truth.size == 6)
      assert(pairsOf(Tsj.selfJoin(spark, d, TsjConfig(0.15, maxTokenFreq = 2))).isEmpty, many)
      assert(pairsWithDist(Tsj.selfJoin(spark, d, TsjConfig(0.15, maxTokenFreq = 3))) == truth, many)
    }
  }

  // --- Edge cases ---

  test("records with no tokens are ignored") {
    val accounts = Seq(Account(1, "..."), Account(2, "anna lee"), Account(3, "anna lee"))
    val got = pairsOf(Tsj.selfJoin(spark, df(accounts), TsjConfig(0.1, NoCutoff)))
    assert(got == Set((2L, 3L)))
  }

  test("TSJ and HMJ return no rows for empty input and for names without tokens") {
    for (accounts <- Seq(Seq.empty[Account], Seq(Account(1, "..."), Account(2, " - ")))) {
      val d = df(accounts)
      val outs = Hmj.selfJoin(spark, d, Hmj.HmjConfig(t = 0.2)) +:
        (for (matching <- Seq(FuzzyTokenMatching, ExactTokenMatching);
              dedup <- Seq(GroupingOnOneString, GroupingOnBothStrings))
         yield Tsj.selfJoin(spark, d, TsjConfig(0.2, matching = matching, dedup = dedup)))
      for (out <- outs) {
        assert(out.columns.toSeq == Seq("id1", "id2", "nsld"))
        assert(out.collect().isEmpty, s"${accounts.size} names")
      }
    }
  }

  test("identical names are found at distance 0") {
    val accounts = Seq(Account(1, "maria silva"), Account(2, "maria silva"))
    val got = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(0.05, NoCutoff)))
    assert(got == Set((1L, 2L, 0.0)))
  }

  test("token-shuffled names are found at distance 0") {
    val accounts = Seq(Account(1, "silva maria"), Account(2, "maria silva"))
    val got = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(0.05, NoCutoff)))
    assert(got == Set((1L, 2L, 0.0)))
  }

  test("punctuation variants are found at distance 0") {
    val accounts = Seq(Account(1, "Silva, Maria"), Account(2, "maria silva"))
    val got = pairsWithDist(Tsj.selfJoin(spark, df(accounts), TsjConfig(0.05, NoCutoff)))
    assert(got == Set((1L, 2L, 0.0)))
  }

  test("config validation") {
    intercept[IllegalArgumentException](TsjConfig(t = 0.0))
    intercept[IllegalArgumentException](TsjConfig(t = 0.6))
    intercept[IllegalArgumentException](TsjConfig(t = 0.1, maxTokenFreq = 0))
  }

  // --- Oracle cross-checks of the join idiom ---

  test("oracle: shared-token pair generation matches DuckDB") {
    import spark.implicits._
    val accounts = NameGen.corpus(200, 83L)
    val inv = accounts
      .flatMap(a => repro.core.Tokenizer.tokenize(a.name).distinct.map(tk => (tk, a.id)))
      .toDF("token", "id")
    val sparkPairs = inv.toDF("token", "ida").join(inv.toDF("token", "idb"), "token")
      .where($"ida" < $"idb")
      .select($"ida".as("id1"), $"idb".as("id2"))
      .distinct()
    Oracle.assertEquivalent(
      sparkPairs,
      """SELECT DISTINCT a.id AS id1, b.id AS id2
        |FROM inv a JOIN inv b ON a.token = b.token
        |WHERE CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)
        |""".stripMargin,
      "inv" -> inv)
  }

  test("oracle catches a wrong result") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val accounts = NameGen.corpus(300, 84L)
    val inv = accounts
      .flatMap(a => repro.core.Tokenizer.tokenize(a.name).distinct.map(tk => (tk, a.id)))
      .toDF("token", "id")
    val wrong = inv.groupBy("token").agg((count(lit(1)) + 1).as("cnt")) // off by one
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT token, count(1) AS cnt FROM inv GROUP BY token",
        "inv" -> inv)
    }
  }

  test("oracle: token frequency cutoff matches DuckDB") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val accounts = NameGen.corpus(300, 84L)
    val inv = accounts
      .flatMap(a => repro.core.Tokenizer.tokenize(a.name).distinct.map(tk => (tk, a.id)))
      .toDF("token", "id")
    val m = 5
    val allowed = inv.groupBy("token").agg(count(lit(1)).as("freq"))
      .where($"freq" <= m).select($"token")
    Oracle.assertEquivalent(
      allowed,
      s"""SELECT token FROM inv GROUP BY token HAVING count(1) <= $m""",
      "inv" -> inv)
  }
}
