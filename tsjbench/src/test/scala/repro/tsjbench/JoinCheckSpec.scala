package repro.tsjbench

import org.scalatest.funsuite.AnyFunSuite

import repro.names.NameGen

class JoinCheckSpec extends AnyFunSuite {

  private val t = 0.225
  private val corpus = Corpus(NameGen.corpus(400, 11L).map(a => (a.id, a.name)))
  private val reference = Reference.build(corpus, Workload("tiny", 400,
    repro.tsj.Tsj.TsjConfig(t = t)), threads = 2)
  private val exactRows: Array[(Long, Long, Double)] = reference.map { p =>
    val (a, b) = (p >>> 32, p & 0xffffffffL)
    (a, b, corpus.nsld(a, b))
  }
  private def check(rows: Array[(Long, Long, Double)]) =
    JoinCheck.of(rows, reference, t, corpus.nsld)

  test("the reference result itself passes") {
    assert(reference.length > 10)
    val c = check(exactRows)
    assert(c.exact && c == JoinCheck(reference.length, reference.length, reference.length, reference.length))
  }

  test("a dropped pair fails the join") {
    val c = check(exactRows.tail)
    assert(!c.exact && c.found == reference.length - 1)
  }

  test("an extra pair fails the join, even one with a correct NSLD") {
    val inRef = reference.toSet
    val extra = (for (a <- 0L until 400L; b <- a + 1 until 400L
                      if !inRef(Reference.pack(a, b))) yield (a, b)).head
    val (a, b) = extra
    val c = check(exactRows :+ ((a, b, corpus.nsld(a, b))))
    assert(!c.exact && c.returned == reference.length + 1)
  }

  test("a wrong NSLD fails the join") {
    val (a, b, d) = exactRows.head
    val c = check(exactRows.updated(0, (a, b, d + 1e-9)))
    assert(!c.exact && c.correct == reference.length - 1 && c.found == reference.length)
  }

  test("a duplicate row or a reversed pair fails the join") {
    assert(!check(exactRows :+ exactRows.head).exact)
    val (a, b, d) = exactRows.head
    assert(!check(exactRows.updated(0, (b, a, d))).exact)
  }
}
