package repro.eval

import scala.concurrent.{Await, ExecutionContext, Future, TimeoutException}
import scala.concurrent.duration._

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.hmj.Hmj
import repro.measures.FuzzyMeasures
import repro.names.NameGen
import repro.tsj.Tsj
import repro.tsj.Tsj._

/** Harnesses that produce the numbers behind each evaluation figure of the
  * paper (Figs. 1–7); [[Figure]] runs them with each figure's parameters for
  * the `jobs/` entrypoint and the `bench/` suites. Each returns plain row
  * case classes; `markdownTable` renders them for EXPERIMENTS.md.
  *
  * "Machines" are simulated by the number of partitions/concurrent tasks
  * (`workers`): the input is repartitioned to `w` and
  * `spark.sql.shuffle.partitions` is set to `w`, capping the effective
  * parallelism of every stage (see DESIGN.md §3).
  */
object Experiments {

  final case class Fig1Row(workers: Int, dedup: String, seconds: Double, pairs: Long)
  final case class SweepRow(param: Double, variant: String, seconds: Double,
                            pairs: Long, recall: Double)
  final case class Fig6Row(measure: String, auc: Double, tprAtFpr05: Double,
                           tprAtFpr10: Double)
  final case class Fig7Row(workers: Int, algo: String, seconds: Double,
                           pairs: Long, finished: Boolean)

  /** The three TSJ variants of the approximation study (Sec. V-B). */
  val Variants: Seq[(String, TokenMatching, Aligning)] = Seq(
    ("fuzzy-token-matching", FuzzyTokenMatching, HungarianAligning),
    ("greedy-token-aligning", FuzzyTokenMatching, GreedyAligning),
    ("exact-token-matching", ExactTokenMatching, HungarianAligning),
  )

  /** Runs `body` with shuffle parallelism pinned to `w`, then restores. */
  def withWorkers[T](spark: SparkSession, w: Int)(body: => T): T = {
    val key = "spark.sql.shuffle.partitions"
    val old = spark.conf.get(key)
    spark.conf.set(key, w.toString)
    try body
    finally spark.conf.set(key, old)
  }

  /** Wall-clock a result-materializing action: returns (seconds, count). */
  def timeCount(df: DataFrame): (Double, Long) = {
    val start = System.nanoTime()
    val n = df.count()
    ((System.nanoTime() - start) / 1e9, n)
  }

  /** Runs `body` on the NameGen corpus `(n, seed)` in `numPartitions`
    * partitions (0: Spark's default), cached and materialized first and
    * unpersisted after.
    */
  private def withCorpus[T](spark: SparkSession, n: Int, seed: Long, numPartitions: Int = 0)
                           (body: DataFrame => T): T = {
    val df = NameGen.corpusDf(spark, n, seed, numPartitions).cache()
    df.count()
    try body(df) finally df.unpersist()
  }

  /** Untimed passes so JIT/codegen warmup is not charged to the first
    * measured configuration: small TSJ (and optionally HMJ) joins, then TSJ
    * with `cfg` on the full corpus.
    */
  def warmup(spark: SparkSession, n: Int, seed: Long, cfg: TsjConfig,
             includeHmj: Boolean = false): Unit = {
    val small = NameGen.corpusDf(spark, 500, seed = 99)
    Tsj.selfJoin(spark, small, TsjConfig(t = 0.1, maxTokenFreq = 100)).count()
    Tsj.selfJoin(spark, small, TsjConfig(t = 0.1, maxTokenFreq = 100,
      matching = ExactTokenMatching, dedup = GroupingOnBothStrings)).count()
    if (includeHmj) Hmj.selfJoin(spark, small, Hmj.HmjConfig(t = 0.1)).count()
    withCorpus(spark, n, seed)(df => Tsj.selfJoin(spark, df, cfg).count())
  }

  /** Fig. 1: TSJ runtime vs workers for both dedup strategies. Each
    * configuration is run `reps` times and the median is reported — single
    * ~5 s local runs carry enough GC/scheduling noise to swamp the
    * strategy gap otherwise.
    */
  def fig1(spark: SparkSession, n: Int, seed: Long, t: Double, m: Long,
           workers: Seq[Int], reps: Int = 3): Seq[Fig1Row] = {
    warmup(spark, n, seed, TsjConfig(t = t, maxTokenFreq = m))
    for {
      w <- workers
      (name, strategy) <- Seq("grouping-on-one-string" -> GroupingOnOneString,
                              "grouping-on-both-strings" -> GroupingOnBothStrings)
    } yield withWorkers(spark, w) {
      val cfg = TsjConfig(t = t, maxTokenFreq = m, dedup = strategy)
      val runs = withCorpus(spark, n, seed, numPartitions = w) { df =>
        Seq.fill(math.max(1, reps))(timeCount(Tsj.selfJoin(spark, df, cfg)))
      }
      val median = runs.map(_._1).sorted.apply(runs.size / 2)
      Fig1Row(w, name, median, runs.head._2)
    }
  }

  /** Figs. 2–5: runtime and #pairs (hence recall) of the three variants at
    * each value `p` of a swept parameter, with `cfgAt(p)` the fuzzy config
    * at `p`: the NSLD threshold T (Figs. 2 & 4) or the max-frequency M
    * (Figs. 3 & 5). One row per (p, variant).
    */
  def sweep(spark: SparkSession, n: Int, seed: Long, params: Seq[Double])
           (cfgAt: Double => TsjConfig): Seq[SweepRow] = {
    warmup(spark, n, seed, cfgAt(params.head))
    withCorpus(spark, n, seed) { df =>
      params.flatMap { p =>
        val runs = for ((name, matching, aligning) <- Variants) yield {
          val cfg = cfgAt(p).copy(matching = matching, aligning = aligning)
          val (secs, pairs) = timeCount(Tsj.selfJoin(spark, df, cfg))
          (name, secs, pairs)
        }
        val fuzzyPairs = runs.find(_._1 == "fuzzy-token-matching").get._3
        runs.map { case (name, secs, pairs) =>
          SweepRow(p, name, secs, pairs,
                   if (fuzzyPairs == 0) 1.0 else pairs.toDouble / fuzzyPairs)
        }
      }
    }
  }

  /** Fig. 6: ROC/AUC of NSLD vs weighted FJaccard/FCosine/FDice on the
    * name-change sample (driver-side; the measures are pairwise scores).
    * `delta` is the baselines' token-similarity threshold T1.
    */
  def fig6(nPairs: Int, seed: Long, delta: Double = 0.8): Seq[Fig6Row] = {
    import repro.core.{TokenDistances, Tokenizer}
    val pairs = NameGen.nameChangePairs(nPairs, seed)
    val tokenized = pairs.map(p =>
      (Tokenizer.tokenize(p.oldName), Tokenizer.tokenize(p.newName), p.fraud))
    val idf = FuzzyMeasures.idfWeights(tokenized.flatMap(p => Seq(p._1, p._2)))
    val w: String => Double = tok => idf.getOrElse(tok, math.log1p(tokenized.size.toDouble))
    val measures: Seq[(String, (Seq[String], Seq[String]) => Double)] = Seq(
      "NSLD" -> ((a, b) => TokenDistances.nsld(a, b)),
      "weighted FJaccard" -> ((a, b) => 1.0 - FuzzyMeasures.fJaccard(a, b, w, delta)),
      "weighted FCosine" -> ((a, b) => 1.0 - FuzzyMeasures.fCosine(a, b, w, delta)),
      "weighted FDice" -> ((a, b) => 1.0 - FuzzyMeasures.fDice(a, b, w, delta)),
    )
    measures.map { case (name, dist) =>
      val scored = tokenized.map { case (a, b, fraud) => (dist(a, b), fraud) }
      Fig6Row(name, Roc.auc(scored),
              Roc.tprAtFpr(scored, 0.05), Roc.tprAtFpr(scored, 0.10))
    }
  }

  /** Fig. 7: TSJ vs HMJ runtime vs workers. HMJ runs under `timeoutSec` and
    * is recorded DNF if exceeded (the paper's HMJ did not finish on the
    * smallest config either).
    */
  def fig7(spark: SparkSession, n: Int, seed: Long, t: Double, m: Long,
           workers: Seq[Int], timeoutSec: Int): Seq[Fig7Row] = {
    warmup(spark, n, seed, TsjConfig(t = t, maxTokenFreq = m), includeHmj = true)
    workers.flatMap { w =>
      withWorkers(spark, w)(withCorpus(spark, n, seed, numPartitions = w) { df =>
        val (tsjSecs, tsjPairs) =
          timeCount(Tsj.selfJoin(spark, df, TsjConfig(t = t, maxTokenFreq = m)))
        val hmjRow = runWithTimeout(spark, timeoutSec, s"hmj-w$w") {
          timeCount(Hmj.selfJoin(spark, df, Hmj.HmjConfig(t = t)))
        } match {
          case Some((secs, pairs)) => Fig7Row(w, "HMJ", secs, pairs, finished = true)
          case None => Fig7Row(w, "HMJ", timeoutSec.toDouble, -1L, finished = false)
        }
        Seq(Fig7Row(w, "TSJ", tsjSecs, tsjPairs, finished = true), hmjRow)
      })
    }
  }

  /** Runs a Spark action under a wall-clock timeout, cancelling its job group
    * on expiry. Returns None on timeout.
    */
  def runWithTimeout[T](spark: SparkSession, timeoutSec: Int, label: String)
                       (action: => T): Option[T] = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val sc = spark.sparkContext
    val fut = Future {
      sc.setJobGroup(label, label, interruptOnCancel = true)
      try action finally sc.clearJobGroup()
    }
    try Some(Await.result(fut, timeoutSec.seconds))
    catch {
      case _: TimeoutException =>
        sc.cancelJobGroup(label)
        None
    }
  }

  /** Renders rows as a GitHub-flavored markdown table. */
  def markdownTable(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val head = headers.mkString("| ", " | ", " |")
    val sep = headers.map(_ => "---").mkString("| ", " | ", " |")
    (head +: sep +: rows.map(_.mkString("| ", " | ", " |"))).mkString("\n")
  }

  def fmt(d: Double): String = f"$d%.4f"
}
