package repro.tsjbench

import java.nio.file.Path

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.{TokenDistances, Tokenizer}
import repro.passjoin.{PassJoin, TokenNldJoin}

/** The traced run: times the benchmark's calls into each module's public
  * functions, one span per call, and derives the TSJ candidate counts from
  * the paper's definitions (input, `Tokenizer` and `TokenNldJoin` output).
  *
  * Layers and what they should move (WORKLOADS.md has the full map):
  *  - `names`: corpus generation, part of `setup_s`;
  *  - `core`: tokenize, length/histogram filters, Hungarian and greedy SLD,
  *    each on one driver thread over the workload's own pairs;
  *  - `passjoin`: chunk generation and the standalone token NLD join;
  *  - `tsj`: the traced join and its candidate volume;
  *  - `spark`: executor totals of the traced join's job group.
  */
object Layers {

  def tracedRun(args: Args, workDir: Path): (Seq[Metric], Seq[JoinRun], Seq[JoinCheck]) = {
    val w = args.workload
    val tracer = new Tracer(s"${w.name}-seed${args.seed}-${System.currentTimeMillis()}")
    val out = tracer.span("run") {
      val (spark, df) = tracer.span("setup") {
        val s = Bench.session()
        (s, tracer.span("names.corpusDf")(Bench.corpus(s, w, args.seed)))
      }
      val listener = new JobGroupListener
      spark.sparkContext.addSparkListener(listener)
      try {
        // The first join pays JIT and codegen; the untraced warm join is the
        // baseline for the tracing overhead.
        val cold = Bench.runJoin(spark, listener, df, w)
        val untraced = Bench.runJoin(spark, listener, df, w)
        val traced = tracer.span("tsj.selfJoin")(Bench.runJoin(spark, listener, df, w))
        val joins = Seq(cold, untraced, traced)
        val (corpus, ref) = Bench.reference(spark, df, w, args.seed)
        val checks = joins.map(Bench.check(_, corpus, ref, w))
        val names = df.select("name").collect().map(_.getString(0))
        val metrics = Seq(Metric("names.corpus_s", tracer.seconds("names.corpusDf"), "s")) ++
          layerMetrics(spark, listener, names, corpus, w, tracer) ++
          joinMetrics(traced, tracer.seconds("tsj.selfJoin")) ++
          Seq(Metric("trace.overhead_s", tracer.seconds("tsj.selfJoin") - untraced.wallS, "s"))
        (metrics, joins, checks)
      } finally spark.stop()
    }
    val file = workDir.resolve("traces").resolve(s"${tracer.runId}.jsonl")
    tracer.write(file)
    println(s"spans: ${tracer.spans.size} written to $file")
    tracer.spans.foreach(s => println(f"  span ${s.name}%-24s ${s.seconds}%10.4f s (parent ${s.parent})"))
    out
  }

  private def layerMetrics(spark: SparkSession, listener: JobGroupListener, names: Array[String],
                           corpus: Corpus, w: Workload, tracer: Tracer): Seq[Metric] = {
    import spark.implicits._
    val t = w.cfg.t

    var tokenCount = 0L
    tracer.span("core.tokenize")(names.foreach(s => tokenCount += Tokenizer.tokenize(s).size))

    val index = new TokenIndex(corpus, w.cfg.maxTokenFreq)
    val allowed = index.tokens.indices.filter(index.allowed)
    val sizes = allowed.map(index.postings(_).length.toLong)

    var indexChunks = 0L
    var probeChunks = 0L
    tracer.span("passjoin.chunks") {
      allowed.foreach { k =>
        indexChunks += PassJoin.indexChunks(index.tokens(k), t).size
        probeChunks += PassJoin.probeChunks(index.tokens(k), t).size
      }
    }

    val tokensDf = allowed.map(index.tokens).toDF("token")
    val sc = spark.sparkContext
    sc.setJobGroup("tsjbench-token-join", "standalone TokenNldJoin")
    val simPairs =
      try tracer.span("passjoin.TokenNldJoin")(
        TokenNldJoin.selfJoin(spark, tokensDf, t).select("t1", "t2").as[(String, String)].collect())
      finally sc.clearJobGroup()
    val tokenJoin = listener.take(sc, "tsjbench-token-join")

    // Similar-token candidates: rows of (t1, t2) joined to both postings,
    // minus the pairs of a record with itself.
    val similar = Array.fill(index.tokens.length)(mutable.ArrayBuffer.empty[Int])
    var similarCandidates = 0L
    simPairs.foreach { case (a, b) =>
      val (ka, kb) = (index.tokenId(a), index.tokenId(b))
      similar(ka) += kb; similar(kb) += ka
      val (pa, pb) = (index.postings(ka), index.postings(kb))
      similarCandidates += pa.length.toLong * pb.length - pa.intersect(pb).length
    }
    val simAdj = if (w.fuzzy) Some(similar.map(_.toArray)) else None

    val candBuf = Array.newBuilder[Long]
    tracer.span("bench.candidates") {
      index.candidates(simAdj, 0, corpus.size)((i, j) => candBuf += (i.toLong << 32) | j)
    }
    val cands = candBuf.result()
    val lens = corpus.tokens.map(_.map(_.length))

    // The filters exactly as Tsj.verify applies them.
    var lengthPruned = 0L
    var histogramPruned = 0L
    val survBuf = Array.newBuilder[Long]
    tracer.span("core.filter") {
      cands.foreach { p =>
        val (i, j) = ((p >>> 32).toInt, p.toInt)
        val lo = math.min(corpus.aggLen(i), corpus.aggLen(j)).toDouble
        val hi = math.max(corpus.aggLen(i), corpus.aggLen(j)).toDouble
        if (lo / hi < (1.0 - t) - 1e-9) lengthPruned += 1
        else if (TokenDistances.nsldLengthLowerBound(lens(i), lens(j)) > t + 1e-12) histogramPruned += 1
        else survBuf += p
      }
    }
    val survivors = survBuf.result()

    var results = 0L
    tracer.span("core.hungarian") {
      survivors.foreach { p =>
        val (i, j) = ((p >>> 32).toInt, p.toInt)
        val s = TokenDistances.sld(corpus.tokens(i), corpus.tokens(j))
        if (TokenDistances.nsldFromSld(corpus.aggLen(i), corpus.aggLen(j), s) <= t) results += 1
      }
    }
    var greedyTotal = 0L
    tracer.span("core.greedy") {
      survivors.foreach { p =>
        greedyTotal += TokenDistances.sldGreedy(corpus.tokens((p >>> 32).toInt), corpus.tokens(p.toInt))
      }
    }

    val hungarianS = tracer.seconds("core.hungarian")
    Seq(
      Metric("core.tokenize_s", tracer.seconds("core.tokenize"), "s"),
      Metric("core.filter_s", tracer.seconds("core.filter"), "s"),
      Metric("core.hungarian_s", hungarianS, "s"),
      Metric("core.hungarian_us_per_pair", hungarianS * 1e6 / math.max(1, survivors.length), "us"),
      Metric("core.greedy_s", tracer.seconds("core.greedy"), "s"),
      Metric("passjoin.index_chunks", indexChunks.toDouble, "count"),
      Metric("passjoin.probe_chunks", probeChunks.toDouble, "count"),
      Metric("passjoin.chunks_s", tracer.seconds("passjoin.chunks"), "s"),
      Metric("passjoin.token_join_s", tracer.seconds("passjoin.TokenNldJoin"), "s"),
      Metric("passjoin.token_join_cpu_s", tokenJoin.cpuS, "s"),
      Metric("passjoin.token_join_shuffle_mb", tokenJoin.shuffleWriteMb, "MB"),
      Metric("passjoin.similar_token_pairs", simPairs.length.toDouble, "count"),
      Metric("tsj.distinct_tokens", index.tokens.length.toDouble, "count"),
      Metric("tsj.tokens_dropped_by_m", (index.tokens.length - allowed.size).toDouble, "count"),
      Metric("tsj.postings", sizes.sum.toDouble, "count"),
      Metric("tsj.shared_candidates", sizes.map(f => f * (f - 1) / 2).sum.toDouble, "count"),
      Metric("tsj.similar_candidates", if (w.fuzzy) similarCandidates.toDouble else 0.0, "count"),
      Metric("tsj.distinct_candidates", cands.length.toDouble, "count"),
      Metric("tsj.length_pruned", lengthPruned.toDouble, "count"),
      Metric("tsj.histogram_pruned", histogramPruned.toDouble, "count"),
      Metric("tsj.verified", survivors.length.toDouble, "count"),
      Metric("tsj.results", results.toDouble, "count"),
      Metric("tsj.useful_ratio", results.toDouble / math.max(1, cands.length), "ratio"),
    )
  }

  private def joinMetrics(traced: JoinRun, spanS: Double): Seq[Metric] = {
    val m = traced.spark
    val runS = m.runMs / 1e3
    // Local mode reads shuffle blocks without a fetch, so this reads 0 on
    // every run; printed here, but not one of the per-layer metrics.
    println(s"spark.shuffle_fetch_wait_s ${m.fetchWaitMs / 1e3} s")
    Seq(
      Metric("tsj.join_s", spanS, "s"),
      Metric("spark.stages", m.stages.toDouble, "count"),
      Metric("spark.tasks", m.tasks.toDouble, "count"),
      Metric("spark.executor_run_s", runS, "s"),
      Metric("spark.executor_cpu_s", m.cpuS, "s"),
      Metric("spark.task_wait_s", runS - m.cpuS, "s"),
      Metric("spark.busy_frac", runS / (traced.wallS * Bench.cores), "ratio"),
      Metric("spark.gc_s", m.gcMs / 1e3, "s"),
      Metric("spark.shuffle_write_mb", m.shuffleWriteMb, "MB"),
      Metric("spark.shuffle_read_mb", m.shuffleReadBytes / 1e6, "MB"),
      Metric("spark.shuffle_records", m.shuffleWriteRecords.toDouble, "count"),
      Metric("spark.shuffle_records_per_result",
        m.shuffleWriteRecords.toDouble / math.max(1, traced.rows.length), "ratio"),
      Metric("spark.spill_mb", m.spillBytes / 1e6, "MB"),
      Metric("spark.task_peak_mem_mb", m.peakTaskMemBytes / 1e6, "MB"),
      Metric("spark.task_skew", m.taskSkew, "ratio"),
    )
  }
}
