package repro.names

import scala.util.Random
import org.apache.spark.sql.{DataFrame, SparkSession}

/** An account with a tokenized-string name signal. */
case class Account(id: Long, name: String)

/** A before/after name change on one account, labelled fraud or legit
  * (the Fig. 6 ROC sample). */
case class NameChange(oldName: String, newName: String, fraud: Boolean)

/** Synthetic person-name corpora — the substitution for the paper's private
  * 44.4M Google-account names (see DESIGN.md §3).
  *
  * What matters to TSJ's behaviour is reproduced:
  *   - a Zipf-popular token vocabulary (a few "John"/"Mary"-like tokens shared
  *     by many accounts — exercised by the max-frequency cutoff M),
  *   - planted fraud rings: groups of accounts whose names are slight edits
  *     of a ring base name (token shuffles, 1–2 character edits,
  *     abbreviations, token drops/adds) — the near-duplicates TSJ must find,
  *   - background accounts with independently drawn names.
  *
  * All draws are deterministic in the seed.
  */
object NameGen {

  private val Consonants = "bcdfghjklmnprstvwz"
  private val Vowels     = "aeiou"

  private def syllable(rnd: Random): String = {
    val sb = new StringBuilder
    sb += Consonants.charAt(rnd.nextInt(Consonants.length))
    sb += Vowels.charAt(rnd.nextInt(Vowels.length))
    if (rnd.nextInt(3) == 0) sb += Consonants.charAt(rnd.nextInt(Consonants.length))
    sb.toString
  }

  /** Distinct pronounceable tokens, 2–4 syllables (≈4–12 chars) — the
    * length range of real first/last names, long enough that a small T
    * admits an edit per token on the longer names.
    */
  def vocabulary(size: Int, seed: Long): IndexedSeq[String] = {
    val rnd = new Random(seed)
    val out = scala.collection.mutable.LinkedHashSet.empty[String]
    while (out.size < size) {
      val nSyl = 2 + rnd.nextInt(3)
      out += (1 to nSyl).map(_ => syllable(rnd)).mkString
    }
    out.toIndexedSeq
  }

  /** Sampler of vocabulary indices with Zipf(alpha) popularity. */
  private final class ZipfSampler(n: Int, alpha: Double, rnd: Random) {
    private val cum: Array[Double] = {
      val w = Array.tabulate(n)(i => 1.0 / math.pow(i + 1.0, alpha))
      var s = 0.0
      val c = new Array[Double](n)
      var i = 0
      while (i < n) { s += w(i); c(i) = s; i += 1 }
      var j = 0
      while (j < n) { c(j) /= s; j += 1 }
      c
    }
    def next(): Int = {
      val u = rnd.nextDouble()
      val i = java.util.Arrays.binarySearch(cum, u)
      if (i >= 0) i else math.min(n - 1, -i - 1)
    }
  }

  private def randomLetter(rnd: Random): Char =
    ('a' + rnd.nextInt(26)).toChar

  /** One random character-level edit (insert/delete/substitute) on a token. */
  private def charEdit(tok: String, rnd: Random): String = {
    if (tok.isEmpty) return randomLetter(rnd).toString
    rnd.nextInt(3) match {
      case 0 => // insert
        val p = rnd.nextInt(tok.length + 1)
        tok.substring(0, p) + randomLetter(rnd) + tok.substring(p)
      case 1 if tok.length > 1 => // delete
        val p = rnd.nextInt(tok.length)
        tok.substring(0, p) + tok.substring(p + 1)
      case _ => // substitute
        val p = rnd.nextInt(tok.length)
        tok.substring(0, p) + randomLetter(rnd) + tok.substring(p + 1)
    }
  }

  private def drawName(voc: IndexedSeq[String], z: ZipfSampler, rnd: Random): Vector[String] = {
    val n = 2 + (if (rnd.nextInt(4) == 0) 1 else 0) // 2 tokens, 25% have 3
    Vector.fill(n)(voc(z.next()))
  }

  /** A slightly-edited ring variant of a base name: the adversarial edits of
    * Sec. I-A (shuffle, small char edits, abbreviation, token drop/add). */
  private def perturb(base: Vector[String], voc: IndexedSeq[String],
                      z: ZipfSampler, rnd: Random): Vector[String] = {
    var toks = base
    if (rnd.nextDouble() < 0.5) toks = rnd.shuffle(toks)
    if (rnd.nextDouble() < 0.3) {
      // Sophisticated-attacker mode ("Barak Obama" → "Burak Ubama"): one
      // edit in *every* token, so no token survives verbatim — only the
      // similar-token (fuzzy) phase can link these variants.
      toks = toks.map(t => charEdit(t, rnd))
    } else {
      // 1–2 character edits on randomly chosen tokens (some stay verbatim).
      val nEdits = 1 + rnd.nextInt(2)
      for (_ <- 1 to nEdits if toks.nonEmpty) {
        val i = rnd.nextInt(toks.size)
        toks = toks.updated(i, charEdit(toks(i), rnd))
      }
    }
    if (rnd.nextDouble() < 0.08 && toks.size > 1) { // abbreviate one token
      val i = rnd.nextInt(toks.size)
      toks = toks.updated(i, toks(i).take(1))
    }
    if (rnd.nextDouble() < 0.06 && toks.size > 2) toks = toks.tail // drop
    if (rnd.nextDouble() < 0.06) toks = toks :+ voc(z.next())      // add
    toks.filter(_.nonEmpty)
  }

  private def format(tokens: Vector[String], rnd: Random): String =
    if (tokens.size >= 2 && rnd.nextInt(10) == 0)
      s"${tokens.last}, ${tokens.init.mkString(" ")}" // "Last, First Middle"
    else tokens.mkString(" ")

  /** A corpus of `n` accounts: `ringFraction` of them belong to fraud rings
    * of 2..2·meanRingSize−2 slightly-edited variants of a base name; the rest
    * are independent background names over a Zipf-popular vocabulary.
    */
  def corpus(n: Int, seed: Long, ringFraction: Double = 0.3,
             meanRingSize: Int = 4): Vector[Account] = {
    val rnd = new Random(seed)
    // Vocabulary scales with corpus size. Zipf(0.8) keeps the head popular
    // ("John"/"Mary"-like) without one token dominating the corpus, so the
    // paper's M = 100..1000 cutoff range stays meaningful.
    val voc = vocabulary(math.max(300, math.min(30000, n)), seed ^ 0x5eed)
    val z = new ZipfSampler(voc.size, 0.8, rnd)
    val out = Vector.newBuilder[Account]
    var id = 0L
    val nRing = (n * ringFraction).toInt
    while (id < nRing) {
      val base = drawName(voc, z, rnd)
      val g = math.max(2, 2 + rnd.nextInt(math.max(1, 2 * meanRingSize - 3)))
      var j = 0
      while (j < g && id < nRing) {
        out += Account(id, format(perturb(base, voc, z, rnd), rnd))
        id += 1; j += 1
      }
    }
    while (id < n) {
      out += Account(id, format(drawName(voc, z, rnd), rnd))
      id += 1
    }
    out.result()
  }

  /** The Fig. 6 ROC sample: `n` name changes, half legit, half fraud.
    *
    * Legit changes are small, graded edits (typo fixes, abbreviations,
    * middle-token drop/add, reorders). Fraud changes are drastic: the new
    * name is re-randomized, occasionally keeping one popular token (the
    * account-creation/exploitation split of Sec. V-D).
    */
  def nameChangePairs(n: Int, seed: Long): Vector[NameChange] = {
    val rnd = new Random(seed)
    val voc = vocabulary(1500, seed ^ 0xc0ffee)
    val z = new ZipfSampler(voc.size, 0.8, rnd)
    Vector.tabulate(n) { i =>
      val fraud = i % 2 == 1
      val old = drawName(voc, z, rnd)
      val neu: Vector[String] =
        if (fraud) {
          if (rnd.nextDouble() < 0.3 && old.nonEmpty) {
            // keep one token of the old name, re-randomize the rest
            val keep = old(rnd.nextInt(old.size))
            rnd.shuffle(keep +: drawName(voc, z, rnd))
          } else drawName(voc, z, rnd)
        } else {
          rnd.nextInt(10) match {
            case 0 | 1 | 2 => // abbreviation: one token to its initial
              val i0 = rnd.nextInt(old.size)
              old.updated(i0, old(i0).take(1))
            case 3 | 4 | 5 | 6 => // typo fix: 1–2 char edits in one token
              val i0 = rnd.nextInt(old.size)
              var t = old(i0)
              for (_ <- 0 to rnd.nextInt(2)) t = charEdit(t, rnd)
              old.updated(i0, t)
            case 7 => if (old.size > 2) old.init else old :+ voc(z.next()) // drop/add
            case 8 => rnd.shuffle(old) // reorder only
            case _ => // small edits on two tokens
              var t = old
              for (_ <- 1 to 2 if t.nonEmpty) {
                val i0 = rnd.nextInt(t.size)
                t = t.updated(i0, charEdit(t(i0), rnd))
              }
              t
          }
        }
      NameChange(format(old, rnd), format(neu, rnd), fraud)
    }
  }

  /** Corpus as a DataFrame `(id: Long, name: String)`. */
  def corpusDf(spark: SparkSession, n: Int, seed: Long, numPartitions: Int = 0): DataFrame = {
    import spark.implicits._
    val ds = spark.createDataset(corpus(n, seed))
    (if (numPartitions > 0) ds.repartition(numPartitions) else ds).toDF()
  }
}
