package repro.hmj

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{TokenDistances, Tokenized, Tokenizer}

/** Hybrid Metric Joiner — the paper's in-house metric-space join baseline
  * (Sec. V-E), reconstructed from its description: a hybrid of ClusterJoin
  * (Sarma et al., VLDB 2014) and MR-MAPSS (Wang et al., KDD 2013).
  *
  *  - the tokenized strings are dissected among sampled centroids by Voronoi
  *    hyperplanes: each record's *home* is its nearest centroid under NSLD;
  *  - ClusterJoin's general filter replicates a record to every centroid `c`
  *    with `(d(r, c) − d(r, home(r))) / 2 <= T` (any pair within `T` is then
  *    co-located in the home partition of at least one member);
  *  - symmetry is exploited as in MR-MAPSS: a pair is emitted in a partition
  *    only if that partition is the home of one of its members, and exactly
  *    once globally via a final distinct;
  *  - oversized partitions are recursively re-dissected with sub-centroids
  *    (one level, as in the paper's description) before the per-partition
  *    pairwise verification.
  *
  * HMJ is exact: it returns the same pairs as TSJ's fuzzy mode. Its weakness
  * — the very one the paper reports — is that tokenized strings form dense
  * clusters in the metric space, so partitions are badly balanced and the
  * pairwise work inside partitions dwarfs TSJ's token-domain join.
  */
/** A record routed to partition `part`; `home` marks its home partition. */
private[hmj] final case class HmjRouted(part: Int, home: Boolean, rec: Tokenized)

object Hmj {

  final case class HmjConfig(
      t: Double,
      numCentroids: Int = 32,
      maxPartitionSize: Int = 1500,
      subCentroids: Int = 8,
      seed: Long = 42L) {
    require(t > 0 && t < 1, s"threshold out of range: $t")
  }

  /** NSLD self-join of `accounts` (`id`, `name`): `(id1, id2, nsld)`,
    * `id1 < id2`, `nsld <= cfg.t`. */
  def selfJoin(spark: SparkSession, accounts: DataFrame, cfg: HmjConfig): DataFrame = {
    import spark.implicits._

    val records = Tokenizer.records(accounts)

    // Centroid sample: k records drawn with a seeded shuffle.
    val centroids: Array[Seq[String]] = records
      .orderBy(xxhash64($"id" + lit(cfg.seed)))
      .limit(cfg.numCentroids)
      .collect()
      .map(_.tokens)
    require(centroids.nonEmpty, "empty input")

    val t = cfg.t
    val routed: Dataset[HmjRouted] = records.flatMap { r =>
      val d = centroids.map(c => TokenDistances.nsld(r.tokens, c))
      var home = 0
      var i = 1
      while (i < d.length) { if (d(i) < d(home)) home = i; i += 1 }
      val dHome = d(home)
      d.indices.collect {
        case p if (d(p) - dHome) / 2.0 <= t =>
          HmjRouted(p, p == home, r)
      }
    }

    routed
      .groupByKey(_.part)
      .flatMapGroups { (_, it) => partitionPairs(it.toArray, cfg) }
      .toDF("id1", "id2", "nsld")
      .distinct()
  }

  /** All similar pairs inside one partition. Oversized partitions are
    * re-dissected locally with sub-centroids (same Voronoi + general filter),
    * then verified pairwise after TSJ's length and histogram filters.
    */
  private def partitionPairs(recs: Array[HmjRouted], cfg: HmjConfig): Iterator[(Long, Long, Double)] = {
    if (recs.length <= cfg.maxPartitionSize || recs.length <= cfg.subCentroids) {
      pairwise(recs, cfg.t)
    } else {
      val rnd = new scala.util.Random(cfg.seed ^ recs.length)
      val centroids = rnd.shuffle(recs.toVector).take(cfg.subCentroids).map(_.rec.tokens)
      val buckets = Array.fill(centroids.size)(Vector.newBuilder[HmjRouted])
      recs.foreach { r =>
        val d = centroids.map(c => TokenDistances.nsld(r.rec.tokens, c))
        val home = d.indices.minBy(d)
        val dHome = d(home)
        d.indices.foreach { p =>
          if ((d(p) - dHome) / 2.0 <= cfg.t)
            buckets(p) += r.copy(home = r.home && p == home)
        }
      }
      buckets.iterator.flatMap(b => pairwise(b.result().toArray, cfg.t))
    }
  }

  private def pairwise(recs: Array[HmjRouted], t: Double): Iterator[(Long, Long, Double)] = {
    val out = Vector.newBuilder[(Long, Long, Double)]
    var i = 0
    while (i < recs.length) {
      val a = recs(i)
      var j = i + 1
      while (j < recs.length) {
        val b = recs(j)
        // MR-MAPSS symmetry: only emit where one member is at home.
        if ((a.home || b.home) && TokenDistances.passesFilters(a.rec, b.rec, t)) {
          val d = TokenDistances.nsld(a.rec.tokens, b.rec.tokens)
          if (d <= t) out += ((math.min(a.rec.id, b.rec.id), math.max(a.rec.id, b.rec.id), d))
        }
        j += 1
      }
      i += 1
    }
    out.result().iterator
  }
}
