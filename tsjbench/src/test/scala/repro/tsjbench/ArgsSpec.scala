package repro.tsjbench

import org.apache.spark.sql.functions.col
import org.scalatest.funsuite.AnyFunSuite

class ArgsSpec extends AnyFunSuite {

  test("the benchmark's options parse, with seed 7 by default") {
    val a = Args.parse(Seq("--workload", "exact-n100k-t010", "--seconds", "25", "--trace", "1"))
    assert(a.workload.name == "exact-n100k-t010" && a.seed == 7L && a.seconds == 25.0 && a.trace)
    assert(Args.parse(Seq("--workload", "fuzzy-n30k-t010", "--seed", "11")).seed == 11L)
    for (bad <- Seq(Seq("--workload", "nope"), Seq("--seed", "3"), Seq("--workload"),
                    Seq("--workload", "fuzzy-n30k-t010", "--trace", "2"),
                    Seq("--workload", "fuzzy-n30k-t010", "--speed", "3")))
      intercept[IllegalArgumentException](Args.parse(bad))
  }

  test("the seed argument reaches NameGen and changes the corpus") {
    val spark = Bench.session()
    try {
      def names(argv: Seq[String]) = {
        val a = Args.parse(argv)
        Bench.corpus(spark, a.workload.copy(n = 300), a.seed)
          .orderBy(col("id")).collect().map(_.getString(1)).toSeq
      }
      val base = Seq("--workload", "fuzzy-n30k-t010")
      val seed7 = names(base)
      assert(seed7 == repro.names.NameGen.corpus(300, 7L).map(_.name))
      assert(names(base ++ Seq("--seed", "7")) == seed7)
      assert(names(base ++ Seq("--seed", "8")) != seed7)
    } finally spark.stop()
  }
}
