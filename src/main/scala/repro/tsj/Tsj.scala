package repro.tsj

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{TokenDistances, Tokenized, Tokenizer}
import repro.passjoin.TokenNldJoin

/** Tokenized-String Joiner (Sec. III): the paper's generate–filter–verify
  * NSLD self-join framework, expressed as a Spark Dataset pipeline with one
  * shuffle per step.
  *
  *  1. tokenize and build the inverted token index, whose postings carry the
  *     whole record, dropping tokens shared by more than `M` tokenized
  *     strings (Sec. III-G.2);
  *  2. generate *shared-token* candidates (Sec. III-C, pairs within one
  *     token's postings) and, under fuzzy token matching, *similar-token*
  *     candidates (Sec. III-D: Theorem 3 reduces them to an NLD self-join of
  *     the distinct-token space, run in memory with [[TokenNldJoin]]);
  *  3. filter each candidate as it is generated, before any dedup shuffle,
  *     with the aggregate-length filter (Lemma 6) and the
  *     token-length-histogram lower-bound filter (Sec. III-E.2);
  *  4. de-duplicate the survivors with either *grouping-on-both-strings* or
  *     *grouping-on-one-string* (Sec. III-G.3, with the hash-balanced
  *     key-choice rule) and verify each pair once by computing SLD exactly
  *     (Hungarian) or with the greedy-token-aligning approximation
  *     (Sec. III-G.5).
  */
object Tsj {

  /** Candidate generation mode (Sec. III-G.4). */
  sealed trait TokenMatching
  /** Shared-token + similar-token generation — exact recall. */
  case object FuzzyTokenMatching extends TokenMatching
  /** Shared-token only — the exact-token-matching approximation. */
  case object ExactTokenMatching extends TokenMatching

  /** SLD computation used in verification (Sec. III-F / III-G.5). */
  sealed trait Aligning
  case object HungarianAligning extends Aligning
  case object GreedyAligning extends Aligning

  /** Candidate de-duplication strategy (Sec. III-G.3). */
  sealed trait DedupStrategy
  case object GroupingOnOneString extends DedupStrategy
  case object GroupingOnBothStrings extends DedupStrategy

  /** TSJ knobs. `t` is the NSLD threshold, `maxTokenFreq` is M. */
  final case class TsjConfig(
      t: Double,
      maxTokenFreq: Long = 1000L,
      matching: TokenMatching = FuzzyTokenMatching,
      aligning: Aligning = HungarianAligning,
      dedup: DedupStrategy = GroupingOnOneString) {
    require(t > 0 && t <= 0.5, s"NSLD threshold must be in (0, 0.5], got $t")
    require(maxTokenFreq >= 1, "maxTokenFreq must be positive")
  }

  /** NSLD self-join of `accounts` (`id: Long`, `name: String`).
    * Returns `(id1, id2, nsld)` with `id1 < id2` and `nsld <= cfg.t`.
    */
  def selfJoin(spark: SparkSession, accounts: DataFrame, cfg: TsjConfig): DataFrame = {
    import spark.implicits._
    val (t, m) = (cfg.t, cfg.maxTokenFreq)

    val records = Tokenizer.records(accounts)

    // Similar-token pairs (Sec. III-D) among the tokens that pass M, as
    // t2 -> the tokens t1 < t2 within NLD t of it.
    val similarBelow: Map[String, Array[String]] = cfg.matching match {
      case ExactTokenMatching => Map.empty
      case FuzzyTokenMatching =>
        val allowedTokens = records.flatMap(_.tokens.distinct).toDF("token")
          .groupBy("token").count().where($"count" <= m)
        TokenNldJoin.selfJoin(spark, allowedTokens, t).select("t1", "t2").as[(String, String)]
          .collect().groupMap(_._2)(_._1)
    }

    // Inverted index, one posting (token, record) per distinct token of a
    // record, grouped by token. A posting also joins the group of every
    // smaller token similar to its own, so each group holds its token's own
    // postings (shared-token candidates, Sec. III-C) and the postings they
    // pair with as similar-token candidates. The filters run on each pair as
    // it is generated, before any dedup shuffle.
    val candidates = records
      .flatMap { r =>
        r.tokens.distinct.flatMap { tk =>
          (tk, true, r) +: similarBelow.getOrElse(tk, Array.empty[String]).map((_, false, r))
        }
      }
      .groupByKey(_._1)
      .flatMapGroups { (_, postings) =>
        val own = mutable.ArrayBuffer.empty[Tokenized]
        val similar = mutable.ArrayBuffer.empty[Tokenized]
        var freq = 0L
        postings.foreach { case (_, isOwn, r) =>
          if (!isOwn) similar += r
          else { freq += 1; if (freq <= m) own += r }
        }
        // The M cutoff (Sec. III-G.2): a token of more than M strings links none.
        if (freq > m) Iterator.empty
        else {
          val shared = own.indices.iterator.flatMap(i =>
            (i + 1 until own.size).iterator.map(j => (own(i), own(j))))
          val sim = own.iterator.flatMap(a => similar.iterator.map((a, _)))
          (shared ++ sim).collect {
            case (a, b) if a.id != b.id && TokenDistances.passesFilters(a, b, t) =>
              if (a.id < b.id) (a, b) else (b, a)
          }
        }
      }

    val results = cfg.dedup match {
      case GroupingOnBothStrings =>
        // One worker per candidate pair: shuffle-group on the pair itself.
        candidates.groupByKey { case (a, b) => (a.id, b.id) }
          .flatMapGroups { (_, pairs) => val (a, b) = pairs.next(); verify(a, b, cfg) }

      case GroupingOnOneString =>
        // One worker per string: each reducer holds one key string and
        // de-duplicates + verifies all its candidate partners with a hash
        // set (Sec. III-G.3, hash-balanced key choice).
        candidates
          .map { case (a, b) => if (chooseKeyValue(a.id, b.id)._1 == a.id) (a, b) else (b, a) }
          .groupByKey(_._1.id)
          .flatMapGroups { (_, pairs) =>
            val seen = mutable.HashSet.empty[Long]
            pairs.flatMap { case (k, v) => if (seen.add(v.id)) verify(k, v, cfg) else None }
          }
    }
    results.toDF("id1", "id2", "nsld")
  }

  /** The paper's load-balancing key-choice rule: `τ` becomes the key iff
    * `int(HASH(τ) < HASH(v)) == (HASH(τ) + HASH(v)) % 2`, for a fingerprint
    * hash — splitting each string's candidates roughly in half between the
    * cases where it serves as key and as value.
    */
  private[tsj] def chooseKeyValue(i: Long, j: Long): (Long, Long) = {
    val hi = MurmurHash3.stringHash(i.toString) & 0x7fffffff
    val hj = MurmurHash3.stringHash(j.toString) & 0x7fffffff
    val lt = if (hi < hj) 1 else 0
    val parity = ((hi.toLong + hj.toLong) % 2L).toInt
    if (lt == parity) (i, j) else (j, i)
  }

  /** Final verification (Sec. III-F) of one filtered candidate pair. */
  private def verify(a: Tokenized, b: Tokenized, cfg: TsjConfig): Option[(Long, Long, Double)] = {
    val s = cfg.aligning match {
      case HungarianAligning => TokenDistances.sld(a.tokens, b.tokens)
      case GreedyAligning    => TokenDistances.sldGreedy(a.tokens, b.tokens)
    }
    val d = TokenDistances.nsldFromSld(a.aggLen, b.aggLen, s)
    if (d <= cfg.t) Some((math.min(a.id, b.id), math.max(a.id, b.id), d)) else None
  }
}
