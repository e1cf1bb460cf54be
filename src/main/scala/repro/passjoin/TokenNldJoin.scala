package repro.passjoin

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Nld

/** MassJoin-style distributed NLD self-join over a token space (Sec. III-D).
  *
  * MassJoin (Deng et al., ICDE 2014) distributes PassJoin as two MapReduce
  * passes: map each string to its segment/substring chunks keyed by the
  * chunk signature, shuffle-group on the signature, and reduce matching
  * (segment, substring) pairs to candidate token pairs, which are then
  * de-duplicated and verified. In Catalyst terms this is exactly a shuffle
  * equi-join of the two chunk DataFrames on the signature key (the probe
  * side already holds only substrings inside the position window),
  * `distinct`, and a banded-LD verification filter — which is how it is
  * expressed here.
  *
  * Self-join only (the paper's motivating application, Sec. III-G.1): only
  * the `|x| <= |y|` direction is generated, and equal-length pairs are kept
  * once via lexicographic order. Identical tokens are *excluded*: a shared
  * token is found by TSJ's shared-token phase, not here.
  */
object TokenNldJoin {

  /** Joins the distinct values of `tokens`' `token` column with themselves
    * under `NLD <= t`. Returns `(t1, t2, nld)` with `t1 < t2`
    * lexicographically.
    */
  def selfJoin(spark: SparkSession, tokens: DataFrame, t: Double): DataFrame = {
    require(t > 0 && t <= 0.5, s"NLD threshold must be in (0, 0.5], got $t")
    import spark.implicits._

    val toks = tokens.select($"token".cast("string")).where(length($"token") > 0)
      .distinct().as[String]

    val indexed = toks.flatMap(y => PassJoin.indexChunks(y, t))
      .toDF("chunk", "segIdx", "lenY", "posY", "tokY")
    val probes = toks.flatMap(x => PassJoin.probeChunks(x, t))
      .toDF("chunk", "segIdx", "lenY", "posX", "tokX")

    // probeChunks only emits substrings within ±U of their segment's start,
    // so every signature match already lies inside the position window.
    val cands = probes
      .join(indexed, Seq("chunk", "segIdx", "lenY"))
      .where($"tokX" =!= $"tokY")
      // self-join symmetry: equal lengths kept once (probe side is the
      // shorter side by construction, so only equal lengths can duplicate).
      .where(!(length($"tokX") === length($"tokY") && $"tokX" > $"tokY"))
      .select($"tokX", $"tokY")
      .distinct()

    cands.as[(String, String)]
      .flatMap { case (x, y) =>
        val maxLd = Nld.maxLdFor(x.length, y.length, t)
        val ld = repro.core.Levenshtein.bounded(x, y, maxLd)
        val d = Nld.fromLd(x.length, y.length, ld)
        if (ld <= maxLd && d <= t) {
          val (a, b) = if (x < y) (x, y) else (y, x)
          Some((a, b, d))
        } else None
      }
      .toDF("t1", "t2", "nld")
  }
}
