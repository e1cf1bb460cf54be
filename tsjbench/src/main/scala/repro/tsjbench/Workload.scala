package repro.tsjbench

import repro.tsj.Tsj
import repro.tsj.Tsj.TsjConfig

/** One benchmark workload: a NameGen corpus of `n` names and the TSJ
  * configuration the benchmark joins it with. The detailed record of why
  * each workload exists and which layers it stresses is WORKLOADS.md.
  */
final case class Workload(name: String, n: Int, cfg: TsjConfig) {
  def fuzzy: Boolean = cfg.matching == Tsj.FuzzyTokenMatching
}

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("fuzzy-n30k-t010", 30000, TsjConfig(t = 0.1, maxTokenFreq = 1000L,
      matching = Tsj.FuzzyTokenMatching, aligning = Tsj.HungarianAligning,
      dedup = Tsj.GroupingOnOneString)),
    Workload("exact-n100k-t010", 100000, TsjConfig(t = 0.1, maxTokenFreq = 1000L,
      matching = Tsj.ExactTokenMatching, aligning = Tsj.HungarianAligning,
      dedup = Tsj.GroupingOnBothStrings)),
    Workload("fuzzy-n30k-t0225", 30000, TsjConfig(t = 0.225, maxTokenFreq = 1000L,
      matching = Tsj.FuzzyTokenMatching, aligning = Tsj.HungarianAligning,
      dedup = Tsj.GroupingOnOneString)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. */
final case class Args(workload: Workload, seed: Long = 7L, seconds: Double = 10.0,
                      trace: Boolean = false)

object Args {
  def parse(argv: Seq[String]): Args = {
    require(argv.size % 2 == 0, s"expected --key value pairs, got: ${argv.mkString(" ")}")
    val kv = argv.grouped(2).map { case Seq(k, v) =>
      require(k.startsWith("--"), s"expected an option, got '$k'")
      k.drop(2) -> v
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val args = Args(
      workload = Workload.byName(kv.getOrElse("workload",
        throw new IllegalArgumentException("--workload is required"))),
      seed = kv.get("seed").map(_.toLong).getOrElse(7L),
      seconds = kv.get("seconds").map(_.toDouble).getOrElse(10.0),
      trace = trace == "1")
    require(args.seconds > 0, "--seconds must be positive")
    args
  }
}
