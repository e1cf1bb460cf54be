package repro.tsjbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even counts, in any order") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.5)) == 7.5)
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Expected values printed by Python 3's statistics.quantiles.
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(4.0, 1.0, 3.0, 2.0)) == ((1.25, 2.5, 3.75)))
    assert(Stats.quartiles(Seq(9.4, 9.1, 10.2)) == ((9.1, 9.4, 10.2)))
    assert(Stats.quartiles(Seq(5.0, 1.0)) == ((0.0, 3.0, 6.0)))
  }
}
