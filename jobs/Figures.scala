package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.Figure

/** Prints the tables of one evaluation figure.
  * Usage: spark-submit ... repro.jobs.Figures <fig1|fig2|fig3|fig6|fig7> [size]
  * where `size` is the corpus size (for fig6, the name-change sample size).
  */
object Figures {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, s"usage: Figures <id> [size]; ids: ${Figure.All.map(_.id).mkString(", ")}")
    val fig = Figure.byId(args(0))
    val n = if (args.length > 1) args(1).toInt else fig.defaultSize
    lazy val spark = JobSession.build(fig.id)
    println(fig.run(spark, n))
    SparkSession.getActiveSession.foreach(_.stop())
  }
}
