package repro.core

import java.text.Normalizer
import java.util.Locale

import org.scalatest.funsuite.AnyFunSuite

/** Tests for the whitespace+punctuation [[Tokenizer]]. */
class TokenizerSpec extends AnyFunSuite {

  test("splits on whitespace") {
    assert(Tokenizer.tokenize("barak obama") == Seq("barak", "obama"))
  }

  test("splits on punctuation (the paper's name tokenization)") {
    assert(Tokenizer.tokenize("Obamma, Boraak H.") == Seq("obamma", "boraak", "h"))
  }

  test("lower-cases tokens") {
    assert(Tokenizer.tokenize("Burak Ubama") == Seq("burak", "ubama"))
  }

  test("collapses runs of separators and trims") {
    assert(Tokenizer.tokenize("  a -- b\t\tc  ") == Seq("a", "b", "c"))
  }

  test("keeps duplicate tokens (multiset semantics)") {
    assert(Tokenizer.tokenize("ana ana maria") == Seq("ana", "ana", "maria"))
  }

  test("digits are token characters") {
    assert(Tokenizer.tokenize("agent 007") == Seq("agent", "007"))
  }

  test("empty and null inputs yield no tokens") {
    assert(Tokenizer.tokenize("") == Seq.empty)
    assert(Tokenizer.tokenize("., -") == Seq.empty)
    assert(Tokenizer.tokenize(null) == Seq.empty)
  }

  test("unicode letters survive tokenization") {
    assert(Tokenizer.tokenize("josé garcía") == Seq("josé", "garcía"))
  }

  test("lower-casing does not depend on the default locale") {
    val saved = Locale.getDefault
    try {
      Locale.setDefault(Locale.forLanguageTag("tr-TR"))
      assert(Tokenizer.tokenize("KIM Ivan") == Seq("kim", "ivan"))
    } finally Locale.setDefault(saved)
  }

  test("combining marks stay inside their token") {
    val decomposed = Normalizer.normalize("Müller", Normalizer.Form.NFD)
    assert(decomposed.length == 7, "the input must carry a combining diaeresis")
    assert(Tokenizer.tokenize(decomposed) == Seq(decomposed.toLowerCase(Locale.ROOT)))
  }

  test("tokenCount and aggLength match the paper's T and L") {
    val toks = Tokenizer.tokenize("chan kalan")
    assert(Tokenizer.tokenCount("chan kalan") == 2)
    assert(Tokenizer.aggLength(toks) == 9)
  }

  test("aggLength of no tokens is 0") {
    assert(Tokenizer.aggLength(Seq.empty) == 0)
  }
}
