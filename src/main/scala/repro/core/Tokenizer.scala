package repro.core

import java.util.Locale

import org.apache.spark.sql.{DataFrame, Dataset}

/** A tokenized string: record id, token multiset and aggregate token length
  * `L`. The one record type of `Tsj`, `Hmj` and `BruteForce`. Top-level so
  * Catalyst codegen can construct it (janino cannot instantiate
  * object-nested case classes and would fall back to interpreted mode).
  */
final case class Tokenized(id: Long, tokens: Seq[String], aggLen: Int)

/** Tokenizer for tokenized strings (Sec. II-A): splits a string into a
  * multiset of tokens on whitespace and punctuation — the scheme the paper
  * used for names on Google accounts ("tokenized using whitespaces and
  * punctuation characters"). Letters, combining marks and digits are token
  * characters, so a decomposed "Müller" stays one token. Lower-cases with
  * the root locale for case-insensitive comparison that does not depend on
  * the JVM's default locale; empty tokens are dropped.
  */
object Tokenizer {

  /** Tokens of `s`, in input order (multiset semantics: duplicates kept). */
  def tokenize(s: String): Seq[String] =
    if (s == null) Seq.empty
    else s.toLowerCase(Locale.ROOT).split("[^\\p{L}\\p{M}\\p{N}]+")
      .iterator.filter(_.nonEmpty).toSeq

  /** Number of tokens, `T(x^t)` in the paper's notation. */
  def tokenCount(s: String): Int = tokenize(s).size

  /** Aggregate token length, `L(x^t)` in the paper's notation. */
  def aggLength(tokens: Seq[String]): Int = tokens.iterator.map(_.length).sum

  /** The tokenized record of string `s` with id `id`. */
  def record(id: Long, s: String): Tokenized = {
    val toks = tokenize(s)
    Tokenized(id, toks, aggLength(toks))
  }

  /** Tokenized records of `accounts` (`id`, `name`); strings without tokens
    * are dropped, as no join can match them.
    */
  def records(accounts: DataFrame): Dataset[Tokenized] = {
    import accounts.sparkSession.implicits._
    accounts
      .select($"id".cast("long"), $"name".cast("string"))
      .as[(Long, String)]
      .map { case (id, name) => record(id, name) }
      .filter(_.tokens.nonEmpty)
  }
}
