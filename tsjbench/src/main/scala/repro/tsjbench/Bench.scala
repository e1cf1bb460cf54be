package repro.tsjbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import java.util.concurrent.{Executors, TimeUnit}

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.names.NameGen
import repro.tsj.Tsj

/** A reported number. */
final case class Metric(name: String, value: Double, unit: String)

/** One join: wall time from the call until the collected result is on the
  * driver, the executor totals of its job group, and its rows (empty if it
  * threw or timed out, with the reason in `error`). */
final case class JoinRun(wallS: Double, rows: Array[(Long, Long, Double)],
                         error: Option[String], spark: GroupMetrics)

/** The TSJ self-join benchmark.
  *
  * Closed loop: one driver thread submits one `Tsj.selfJoin` at a time and
  * collects its full result before the next. Spark runs as the repository's
  * jobs configure it: `local[N]` with `N = min(4, cores)`, broadcast joins
  * off, 64 shuffle partitions. Every join is checked against the workload's
  * reference after the timed part of the run.
  *
  * `--trace 0` prints the end-to-end metrics; `--trace 1` makes the traced
  * run and prints the per-layer metrics (see [[Layers]]). The last line of
  * standard output is one JSON object.
  */
object Bench {
  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3
  /** Warm joins per run at least; more while `--seconds` has not elapsed. */
  val MinWarmJoins = 2
  /** A join still running after this long is cancelled and counts as failed. */
  val JoinTimeoutS = 100L

  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  private val workDir: Path = Paths.get(sys.props.getOrElse("tsjbench.work", "tsjbench/work"))
  private val watchdog = Executors.newSingleThreadScheduledExecutor { r =>
    val th = new Thread(r, "tsjbench-watchdog"); th.setDaemon(true); th
  }
  private var joinSeq = 0

  def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("tsjbench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The workload's input as the program receives it, cached and materialised. */
  def corpus(spark: SparkSession, w: Workload, seed: Long): DataFrame = {
    val df = NameGen.corpusDf(spark, w.n, seed).cache()
    df.count()
    df
  }

  def runJoin(spark: SparkSession, listener: JobGroupListener, df: DataFrame, w: Workload): JoinRun = {
    val sc = spark.sparkContext
    joinSeq += 1
    val group = s"tsjbench-join-$joinSeq"
    sc.setJobGroup(group, s"${w.name} join $joinSeq", interruptOnCancel = true)
    val timer = watchdog.schedule(new Runnable { def run(): Unit = sc.cancelJobGroup(group) },
      JoinTimeoutS, TimeUnit.SECONDS)
    val t0 = System.nanoTime()
    val (wall, rows, error) =
      try {
        val collected = Tsj.selfJoin(spark, df, w.cfg).collect()
        val wall = (System.nanoTime() - t0) / 1e9
        (wall, collected.map(r => (r.getAs[Long]("id1"), r.getAs[Long]("id2"), r.getAs[Double]("nsld"))), None)
      } catch {
        case NonFatal(e) =>
          val wall = (System.nanoTime() - t0) / 1e9
          val why = if (timer.isDone) s"timed out after ${JoinTimeoutS}s" else e.toString
          (wall, Array.empty[(Long, Long, Double)], Some(why))
      } finally {
        timer.cancel(false)
        sc.clearJobGroup()
      }
    JoinRun(wall, rows, error, listener.take(sc, group))
  }

  def heapAfterGcMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def reference(spark: SparkSession, df: DataFrame, w: Workload, seed: Long): (Corpus, Array[Long]) = {
    val rows = df.select("id", "name").collect().map(r => (r.getLong(0), r.getString(1)))
    val c = Corpus(rows.toSeq)
    val t0 = System.nanoTime()
    val ref = Reference.cached(c, w, seed, workDir.resolve("reference"), cores)
    println(f"reference: ${ref.length} pairs in ${(System.nanoTime() - t0) / 1e9}%.2f s")
    (c, ref)
  }

  def check(run: JoinRun, c: Corpus, ref: Array[Long], w: Workload): JoinCheck =
    JoinCheck.of(run.rows, ref, w.cfg.t, c.nsld)

  def main(argv: Array[String]): Unit = {
    val args =
      try Args.parse(argv.toSeq)
      catch { case e: IllegalArgumentException => Console.err.println(e.getMessage); sys.exit(2) }
    val (metrics, joins, checks) =
      if (args.trace) Layers.tracedRun(args, workDir) else endToEnd(args)
    val failed = joins.zip(checks).count { case (j, c) => j.error.nonEmpty || !c.exact }
    joins.zip(checks).zipWithIndex.foreach { case ((j, c), i) =>
      println(f"join ${i + 1}%2d: ${j.wallS}%8.3f s, returned ${c.returned}, correct ${c.correct}, " +
        s"reference ${c.expected}, found ${c.found}" +
        j.error.map(e => s", FAILED: $e").getOrElse(if (c.exact) "" else ", FAILED: result differs from reference"))
    }
    println(f"failed_frac ${failed.toDouble / joins.size}%.4f (failed $failed of ${joins.size} joins)")
    metrics.foreach(m => println(f"${m.name}%-36s ${m.value}%14.6f ${m.unit}"))
    val body = metrics.map(m => s""""${m.name}": {"value": ${jsonNumber(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": ${failed == 0}, "attempted": ${joins.size}, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
    watchdog.shutdownNow()
  }

  /** Samples with their quartiles, to show the spread within one run. */
  private def describe(xs: Seq[Double]): String = {
    val shown = xs.map(x => f"$x%.3f").mkString(" ")
    if (xs.size < 2) shown
    else {
      val (q1, q2, q3) = Stats.quartiles(xs)
      f"$shown (quartiles $q1%.3f $q2%.3f $q3%.3f)"
    }
  }

  private def jsonNumber(v: Double): String = if (v.isNaN || v.isInfinite) "-1" else v.toString

  /** Untraced run: the end-to-end metrics. */
  def endToEnd(args: Args): (Seq[Metric], Seq[JoinRun], Seq[JoinCheck]) = {
    val w = args.workload
    var spark: SparkSession = null
    var df: DataFrame = null
    val setupS = (1 to Setups).map { i =>
      if (i > 1) { df.unpersist(blocking = true); spark.stop() }
      val t0 = System.nanoTime()
      spark = session()
      df = corpus(spark, w, args.seed)
      (System.nanoTime() - t0) / 1e9
    }
    val listener = new JobGroupListener
    spark.sparkContext.addSparkListener(listener)
    try {
      val first = runJoin(spark, listener, df, w)
      val warmStart = System.nanoTime()
      val warm = Seq.newBuilder[(JoinRun, Double)]
      var n = 0
      var failed = first.error.nonEmpty
      while (!failed && (n < MinWarmJoins || (System.nanoTime() - warmStart) / 1e9 < args.seconds)) {
        val run = runJoin(spark, listener, df, w)
        warm += ((run, heapAfterGcMb()))
        failed = run.error.nonEmpty
        n += 1
      }
      val warmRuns = warm.result()
      val ok = warmRuns.map(_._1).filter(_.error.isEmpty)
      val (c, ref) = reference(spark, df, w, args.seed)
      val joins = first +: warmRuns.map(_._1)
      val checks = joins.map(check(_, c, ref, w))
      val returned = checks.map(_.returned).sum
      def med(xs: Seq[Double]) = if (xs.isEmpty) Double.NaN else Stats.median(xs)
      println(s"workload ${w.name}: n=${w.n} seed=${args.seed} cores=$cores " +
        s"warm joins=${warmRuns.size} (join_s, cpu_s and shuffle_mb are medians over them)")
      println(s"setup_s samples: ${describe(setupS)}")
      if (ok.nonEmpty) println(s"warm join_s samples: ${describe(ok.map(_.wallS))}")
      val metrics = Seq(
        Metric("join_s", med(ok.map(_.wallS)), "s"),
        Metric("first_join_s", first.wallS, "s"),
        Metric("setup_s", Stats.median(setupS), "s"),
        Metric("cpu_s", med(ok.map(_.spark.cpuS)), "s"),
        Metric("shuffle_mb", med(ok.map(_.spark.shuffleWriteMb)), "MB"),
        Metric("peak_heap_mb", if (warmRuns.isEmpty) Double.NaN else warmRuns.map(_._2).max, "MB"),
        Metric("precision", if (returned == 0) 1.0 else checks.map(_.correct).sum.toDouble / returned, "ratio"),
        Metric("recall", checks.map(_.found).sum.toDouble / math.max(1, checks.map(_.expected).sum), "ratio"),
      )
      (metrics, joins, checks)
    } finally spark.stop()
  }
}
