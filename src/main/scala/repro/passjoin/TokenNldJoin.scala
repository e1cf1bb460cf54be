package repro.passjoin

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Levenshtein, Nld}

/** In-memory PassJoin NLD self-join over a token space (Sec. III-D).
  *
  * Theorem 3 reduces similar-token candidate generation to an NLD self-join
  * of the *distinct* tokens, and that space is small: 28,836 tokens at 30k
  * names and 64,695 at 100k in the benchmark corpora. So the tokens are
  * collected to the driver and joined with one PassJoin segment index
  * (Li et al., VLDB 2011 §4): every token's segments keyed by
  * `(chunk, segIdx, lenY)`, probed with each token's in-window substrings,
  * and the candidates verified with the banded LD. MassJoin (Deng et al.,
  * ICDE 2014) distributes the same scheme for token spaces that do not fit
  * in memory, which none of the evaluated corpora needs.
  *
  * Self-join only (the paper's motivating application, Sec. III-G.1): only
  * the `|x| <= |y|` direction is generated, and equal-length pairs are kept
  * once via lexicographic order. Identical tokens are *excluded*: a shared
  * token is found by TSJ's shared-token phase, not here.
  */
object TokenNldJoin {

  /** Joins the distinct non-empty values of `tokens`' `token` column with
    * themselves under `NLD <= t`. Returns `(t1, t2, nld)` with `t1 < t2`
    * lexicographically.
    */
  def selfJoin(spark: SparkSession, tokens: DataFrame, t: Double): DataFrame = {
    require(t > 0 && t <= 0.5, s"NLD threshold must be in (0, 0.5], got $t")
    import spark.implicits._

    val toks = tokens.select($"token".cast("string")).where(length($"token") > 0)
      .as[String].collect().distinct
    val index = toks.iterator.flatMap(y => PassJoin.indexChunks(y, t))
      .toSeq.groupMap(c => (c.chunk, c.segIdx, c.lenY))(_.token)

    // probeChunks only emits substrings within ±U of their segment's start,
    // so every signature match already lies inside the position window.
    val pairs = toks.iterator.flatMap { x =>
      val ys = mutable.HashSet.empty[String]
      for (c <- PassJoin.probeChunks(x, t); y <- index.getOrElse((c.chunk, c.segIdx, c.lenY), Nil))
        // self-join symmetry: equal lengths kept once (probe side is the
        // shorter side by construction, so only equal lengths can duplicate).
        if (x != y && !(x.length == y.length && x > y)) ys += y
      ys.iterator.flatMap { y =>
        val maxLd = Nld.maxLdFor(x.length, y.length, t)
        val ld = Levenshtein.bounded(x, y, maxLd)
        val d = Nld.fromLd(x.length, y.length, ld)
        if (ld <= maxLd && d <= t) Some(if (x < y) (x, y, d) else (y, x, d)) else None
      }
    }.toSeq
    pairs.toDF("t1", "t2", "nld")
  }
}
