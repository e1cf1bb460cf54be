package repro.passjoin

import scala.util.Random

import repro.{Oracle, SparkSpec}
import repro.core.Nld

/** Tests for the in-memory PassJoin token NLD self-join, checked against a
  * driver-side brute force and against a DuckDB `levenshtein` SQL
  * formulation via the oracle.
  */
class TokenNldJoinSpec extends SparkSpec {

  private def randTokens(n: Int, seed: Long, maxLen: Int = 8): Seq[String] = {
    val rnd = new Random(seed)
    Seq.fill(n)((1 to (1 + rnd.nextInt(maxLen))).map(_ => "abcd".charAt(rnd.nextInt(4))).mkString)
      .distinct
  }

  private def brute(tokens: Seq[String], t: Double): Set[(String, String)] = {
    val toks = tokens.distinct
    (for {
      i <- toks.indices
      j <- (i + 1) until toks.size
      a = toks(i); b = toks(j)
      if Nld.nld(a, b) <= t
    } yield if (a < b) (a, b) else (b, a)).toSet
  }

  private def runJoin(tokens: Seq[String], t: Double): Set[(String, String)] = {
    import spark.implicits._
    val df = tokens.toDF("token")
    TokenNldJoin.selfJoin(spark, df, t)
      .select("t1", "t2").collect().map(r => (r.getString(0), r.getString(1))).toSet
  }

  for ((t, seed) <- Seq((0.1, 50L), (0.2, 51L), (0.3, 52L), (0.5, 53L))) {
    test(s"selfJoin matches brute force (t=$t, seed=$seed)") {
      val toks = randTokens(150, seed)
      assert(runJoin(toks, t) == brute(toks, t))
    }
  }

  test("selfJoin matches brute force on name-like tokens") {
    val toks = repro.names.NameGen.vocabulary(200, 7L) ++
      Seq("thomson", "thompson", "alex", "alexa", "chan", "chank", "kalan", "alan")
    assert(runJoin(toks, 0.25) == brute(toks, 0.25))
  }

  test("identical tokens are excluded (covered by the shared-token phase)") {
    val toks = Seq("anna", "anna", "bob", "", "ann", "bob")
    val out = runJoin(toks, 0.5)
    assert(!out.exists { case (a, b) => a == b })
    assert(out == brute(toks.filter(_.nonEmpty).distinct, 0.5))
  }

  test("reported NLD values are exact") {
    import spark.implicits._
    val toks = randTokens(120, 60L)
    val rows = TokenNldJoin.selfJoin(spark, toks.toDF("token"), 0.3).collect()
    rows.foreach { r =>
      val d = Nld.nld(r.getString(0), r.getString(1))
      assert(math.abs(r.getDouble(2) - d) < 1e-12)
      assert(d <= 0.3)
    }
  }

  test("empty input yields empty output") {
    import spark.implicits._
    assert(TokenNldJoin.selfJoin(spark, Seq.empty[String].toDF("token"), 0.2).count() == 0)
  }

  test("thresholds outside (0, 0.5] are rejected") {
    import spark.implicits._
    val df = Seq("a").toDF("token")
    intercept[IllegalArgumentException](TokenNldJoin.selfJoin(spark, df, 0.0))
    intercept[IllegalArgumentException](TokenNldJoin.selfJoin(spark, df, 0.6))
  }

  test("oracle: join result matches DuckDB's levenshtein formulation") {
    import spark.implicits._
    val t = 0.25
    val toks = randTokens(120, 61L)
    val tokDf = toks.toDF("token")
    val result = TokenNldJoin.selfJoin(spark, tokDf, t).select("t1", "t2")
    Oracle.assertEquivalent(
      result,
      s"""SELECT a.token AS t1, b.token AS t2
         |FROM toks a JOIN toks b ON a.token < b.token
         |WHERE 2.0 * levenshtein(a.token, b.token) /
         |      (length(a.token) + length(b.token) + levenshtein(a.token, b.token)) <= $t
         |""".stripMargin,
      "toks" -> tokDf)
  }

  test("oracle: small-threshold join matches DuckDB") {
    import spark.implicits._
    val t = 0.1
    val toks = (randTokens(80, 62L, maxLen = 12) ++ Seq("metwally", "metwaly", "huang", "huang2"))
      .distinct
    val tokDf = toks.toDF("token")
    val result = TokenNldJoin.selfJoin(spark, tokDf, t).select("t1", "t2")
    Oracle.assertEquivalent(
      result,
      s"""SELECT a.token AS t1, b.token AS t2
         |FROM toks a JOIN toks b ON a.token < b.token
         |WHERE 2.0 * levenshtein(a.token, b.token) /
         |      (length(a.token) + length(b.token) + levenshtein(a.token, b.token)) <= $t
         |""".stripMargin,
      "toks" -> tokDf)
  }
}
