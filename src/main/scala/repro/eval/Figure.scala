package repro.eval

import org.apache.spark.sql.SparkSession

import repro.eval.Experiments._
import repro.tsj.Tsj.TsjConfig

/** One evaluation figure (DESIGN.md §4): its parameters, the harness that
  * produces its rows and the markdown tables it prints. The registry in the
  * companion is the one place each figure's parameters are written down;
  * `jobs/Figures` and the `bench/` suites both take them from there.
  *
  * @param id          the id `jobs/Figures` selects the figure by
  * @param defaultSize the corpus size (for Fig. 6, the name-change sample size)
  */
sealed abstract class Figure[R](val id: String, val defaultSize: Int) {

  /** Runs the figure's harness at size `n`. */
  def rows(spark: => SparkSession, n: Int): Seq[R]

  /** The figure's tables for `rows`, each under a markdown heading. */
  def report(n: Int, rows: Seq[R]): String

  final def run(spark: => SparkSession, n: Int): String = report(n, rows(spark, n))
}

object Figure {

  private val Seed = 7L
  private val Workers = Seq(2, 4, 8, 16)

  object Fig1 extends Figure[Fig1Row]("fig1", 100000) {
    val t = 0.1
    val m = 1000L
    def rows(spark: => SparkSession, n: Int): Seq[Fig1Row] =
      fig1(spark, n, Seed, t, m, Workers, reps = 5)
    def report(n: Int, rows: Seq[Fig1Row]): String =
      section(s"Fig 1 — TSJ runtime (s) vs workers (n=$n, T=$t, M=$m)",
        Seq("workers", "dedup", "seconds", "pairs"),
        rows.map(r => Seq(r.workers.toString, r.dedup, fmt(r.seconds), r.pairs.toString)))
  }

  /** Figs. 2 & 4. */
  object Fig2 extends Figure[SweepRow]("fig2", 30000) {
    val ts = Seq(0.025, 0.075, 0.125, 0.175, 0.225)
    val m = 1000L
    def rows(spark: => SparkSession, n: Int): Seq[SweepRow] =
      sweep(spark, n, Seed, ts)(t => TsjConfig(t = t, maxTokenFreq = m))
    def report(n: Int, rows: Seq[SweepRow]): String =
      sweepReport(rows, "T", _.toString,
        s"Fig 2 — TSJ runtime (s) vs T (n=$n, M=$m)",
        s"Fig 4 — discovered pairs and recall vs T (n=$n, M=$m)")
  }

  /** Figs. 3 & 5. */
  object Fig3 extends Figure[SweepRow]("fig3", 30000) {
    val ms = Seq(100L, 250L, 500L, 1000L)
    val t = 0.1
    def rows(spark: => SparkSession, n: Int): Seq[SweepRow] =
      sweep(spark, n, Seed, ms.map(_.toDouble))(m => TsjConfig(t = t, maxTokenFreq = m.toLong))
    def report(n: Int, rows: Seq[SweepRow]): String =
      sweepReport(rows, "M", _.toLong.toString,
        s"Fig 3 — TSJ runtime (s) vs M (n=$n, T=$t)",
        s"Fig 5 — discovered pairs and recall vs M (n=$n, T=$t)")
  }

  object Fig6 extends Figure[Fig6Row]("fig6", 10000) {
    /** Fig. 6 runs on the driver: it needs no Spark session. */
    def rows(n: Int): Seq[Fig6Row] = fig6(n, seed = 11)
    def rows(spark: => SparkSession, n: Int): Seq[Fig6Row] = rows(n)
    def report(n: Int, rows: Seq[Fig6Row]): String =
      section(s"Fig 6 — ROC of distance measures on $n name changes " +
          s"(${n - n / 2} legit / ${n / 2} fraud)",
        Seq("measure", "AUC", "TPR@FPR=0.05", "TPR@FPR=0.10"),
        rows.map(r => Seq(r.measure, fmt(r.auc), fmt(r.tprAtFpr05), fmt(r.tprAtFpr10))))
  }

  object Fig7 extends Figure[Fig7Row]("fig7", 30000) {
    val t = 0.1
    val m = 1000L
    def rows(spark: => SparkSession, n: Int): Seq[Fig7Row] =
      fig7(spark, n, Seed, t, m, Workers, timeoutSec = 450)
    def report(n: Int, rows: Seq[Fig7Row]): String =
      section(s"Fig 7 — TSJ vs HMJ runtime (s) vs workers (n=$n, T=$t, M=$m)",
        Seq("workers", "algo", "seconds", "pairs", "finished"),
        rows.map(r => Seq(r.workers.toString, r.algo, fmt(r.seconds),
                          r.pairs.toString, r.finished.toString)))
  }

  val All: Seq[Figure[_]] = Seq(Fig1, Fig2, Fig3, Fig6, Fig7)

  /** The figure with id `id`; any other id fails, listing the valid ones. */
  def byId(id: String): Figure[_] =
    All.find(_.id == id).getOrElse(throw new IllegalArgumentException(
      s"unknown figure id '$id'; valid ids: ${All.map(_.id).mkString(", ")}"))

  private def section(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String =
    s"### $title\n" + markdownTable(headers, rows)

  /** A sweep's runtime table and its pairs/recall table. */
  private def sweepReport(rows: Seq[SweepRow], param: String, show: Double => String,
                          timeTitle: String, pairsTitle: String): String =
    section(timeTitle, Seq(param, "variant", "seconds"),
      rows.map(r => Seq(show(r.param), r.variant, fmt(r.seconds)))) + "\n\n" +
    section(pairsTitle, Seq(param, "variant", "pairs", "recall"),
      rows.map(r => Seq(show(r.param), r.variant, r.pairs.toString, f"${r.recall}%.5f")))
}
