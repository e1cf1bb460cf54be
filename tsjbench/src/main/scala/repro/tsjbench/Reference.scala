package repro.tsjbench

import java.io._
import java.nio.file.{Files, Path, StandardCopyOption}

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.hashing.MurmurHash3

import repro.core.{Nld, TokenDistances, Tokenizer}

/** The benchmark's view of a corpus: non-empty tokenized records sorted by id. */
final class Corpus private (val ids: Array[Long], val tokens: Array[IndexedSeq[String]],
                            val fingerprint: Int) {
  def size: Int = ids.length
  val aggLen: Array[Int] = tokens.map(Tokenizer.aggLength)

  private val indexOfId: java.util.HashMap[Long, Int] = {
    val m = new java.util.HashMap[Long, Int](size * 2)
    ids.indices.foreach(i => m.put(ids(i), i))
    m
  }

  /** NSLD of two records by id, recomputed from the definition; NaN if
    * either id is not in the corpus. */
  def nsld(id1: Long, id2: Long): Double = {
    val (a, b) = (indexOfId.get(id1), indexOfId.get(id2))
    if (a == null || b == null) Double.NaN else TokenDistances.nsld(tokens(a), tokens(b))
  }
}

object Corpus {
  def apply(accounts: Seq[(Long, String)]): Corpus = {
    val sorted = accounts.sortBy(_._1)
    val recs = sorted.map { case (id, name) => (id, Tokenizer.tokenize(name).toIndexedSeq) }
      .filter(_._2.nonEmpty)
    require(recs.forall { case (id, _) => id >= 0 && id <= Int.MaxValue },
      "pair keys pack two ids into one long; ids must fit in 31 bits")
    val fp = MurmurHash3.orderedHash(sorted)
    new Corpus(recs.map(_._1).toArray, recs.map(_._2).toArray, fp)
  }
}

/** Inverted token index of a corpus with the max-frequency cutoff M
  * (Sec. III-G.2): every distinct token, its postings (ascending record
  * indices, one per record) and, per record, its distinct allowed tokens.
  */
final class TokenIndex(val corpus: Corpus, m: Long) {
  val (tokens: Array[String], postings: Array[Array[Int]]) = {
    val ids = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Int]]
    for (i <- 0 until corpus.size; tk <- corpus.tokens(i).distinct)
      ids.getOrElseUpdate(tk, mutable.ArrayBuffer.empty[Int]) += i
    (ids.keys.toArray, ids.values.map(_.toArray).toArray)
  }
  val allowed: Array[Boolean] = postings.map(_.length <= m)
  private val idOf: Map[String, Int] = tokens.zipWithIndex.toMap
  def tokenId(tk: String): Int = idOf.getOrElse(tk, -1)
  val recordTokens: Array[Array[Int]] =
    corpus.tokens.map(_.distinct.map(idOf).filter(allowed).toArray)

  /** Calls `visit(i, j)` exactly once for every record pair `i < j` with
    * `lo <= i < hi` that shares an allowed token, or (when `similar` is
    * given, token id -> similar allowed token ids) holds two allowed tokens
    * listed as similar.
    */
  def candidates(similar: Option[Array[Array[Int]]], lo: Int, hi: Int)
                (visit: (Int, Int) => Unit): Unit = {
    val stamp = Array.fill(corpus.size)(-1)
    var i = lo
    while (i < hi) {
      val own = i
      def mark(ps: Array[Int]): Unit = ps.foreach { j =>
        if (j > own && stamp(j) != own) { stamp(j) = own; visit(own, j) }
      }
      recordTokens(i).foreach { k =>
        mark(postings(k))
        similar.foreach(_(k).foreach(s => mark(postings(s))))
      }
      i += 1
    }
  }
}

/** The correctness reference: the exact NSLD self-join result of a workload,
  * built from the definitions, without `Tsj`, `TokenNldJoin` or the `Nld`
  * threshold-bound helpers.
  *
  *  - Exact token matching: the pairs sharing a token that survives M, with
  *    `TokenDistances.nsld <= T`.
  *  - Fuzzy token matching: also the pairs linked by two allowed tokens with
  *    `Nld.nld <= T`.
  *
  * Pairs are packed as `id1 << 32 | id2` with `id1 < id2`, sorted.
  */
object Reference {

  def pack(id1: Long, id2: Long): Long = (id1 << 32) | id2

  /** Largest LD of a token of length `len` to any token within NLD `t`:
    * with `LD >= |la - lb|`, `2·LD / (la + lb + LD) <= t` gives
    * `LD <= t·la / (1 - t)` for the shorter length `la`. The slack lets
    * float rounding only widen the bound.
    */
  private[tsjbench] def maxEdits(len: Int, t: Double): Int =
    math.floor(t * len / (1.0 - t) + 1e-9).toInt

  /** All strings obtained from `s` by deleting at most `k` characters. */
  private[tsjbench] def deletions(s: String, k: Int): Set[String] =
    (1 to k).foldLeft((Set(s), Set(s))) { case ((all, frontier), _) =>
      val next = for (v <- frontier; p <- 0 until v.length) yield v.substring(0, p) + v.substring(p + 1)
      (all ++ next, next)
    }._1

  /** Similar-token adjacency (token id -> token ids) over the allowed tokens:
    * every pair of distinct allowed tokens with `Nld.nld <= t`. Candidates
    * come from shared deletion variants (if `LD(a, b) = d`, deleting at most
    * `d` characters from each side yields a common string), so the set is
    * complete; each candidate is then verified with `Nld.nld`.
    */
  def similarTokens(index: TokenIndex, t: Double): Array[Array[Int]] = {
    val keys = Array.newBuilder[Long]
    for (k <- index.tokens.indices if index.allowed(k); tk = index.tokens(k);
         v <- deletions(tk, maxEdits(tk.length, t))) {
      val h = (MurmurHash3.stringHash(v).toLong << 8) ^ v.hashCode.toLong
      keys += ((h & ((1L << 40) - 1)) << 24) | k
    }
    val sorted = keys.result()
    require(index.tokens.length < (1 << 24), "token ids must fit in 24 bits")
    java.util.Arrays.sort(sorted)
    val tested = mutable.HashSet.empty[Long]
    val adj = Array.fill(index.tokens.length)(mutable.ArrayBuffer.empty[Int])
    var start = 0
    while (start < sorted.length) {
      var end = start + 1
      while (end < sorted.length && (sorted(end) >>> 24) == (sorted(start) >>> 24)) end += 1
      for (x <- start until end; y <- x + 1 until end) {
        val a = (sorted(x) & 0xffffff).toInt
        val b = (sorted(y) & 0xffffff).toInt
        if (a != b && tested.add(pack(math.min(a, b), math.max(a, b))) &&
            Nld.nld(index.tokens(a), index.tokens(b)) <= t) {
          adj(a) += b; adj(b) += a
        }
      }
      start = end
    }
    adj.map(_.toArray)
  }

  /** Builds the reference on `threads` driver threads. */
  def build(corpus: Corpus, w: Workload, threads: Int): Array[Long] = {
    val t = w.cfg.t
    val index = new TokenIndex(corpus, w.cfg.maxTokenFreq)
    val similar = if (w.fuzzy) Some(similarTokens(index, t)) else None
    val chunks = 4 * threads
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      val parts = (0 until chunks).map { c =>
        Future {
          val out = Array.newBuilder[Long]
          index.candidates(similar, corpus.size * c / chunks, corpus.size * (c + 1) / chunks) { (i, j) =>
            val (li, lj) = (corpus.aggLen(i), corpus.aggLen(j))
            val d = math.abs(li - lj)
            // SLD >= |L(x) - L(y)| and NSLD grows with SLD: a cheap exact prune.
            if (2.0 * d / (li + lj + d) <= t &&
                TokenDistances.nsld(corpus.tokens(i), corpus.tokens(j)) <= t)
              out += pack(corpus.ids(i), corpus.ids(j))
          }
          out.result()
        }
      }
      val all = Await.result(Future.sequence(parts), Duration.Inf).toArray.flatten
      java.util.Arrays.sort(all)
      all
    } finally pool.shutdown()
  }

  /** The reference for `(w, seed)`, read from `dir` when a previous run
    * stored it for the same corpus, else built and stored there. */
  def cached(corpus: Corpus, w: Workload, seed: Long, dir: Path, threads: Int): Array[Long] = {
    val file = dir.resolve(f"${w.name}-seed$seed-${corpus.fingerprint}%08x.ref")
    if (Files.exists(file)) {
      val in = new DataInputStream(new BufferedInputStream(Files.newInputStream(file)))
      try Array.fill(in.readInt())(in.readLong()) finally in.close()
    } else {
      val ref = build(corpus, w, threads)
      Files.createDirectories(dir)
      val tmp = Files.createTempFile(dir, "ref", ".tmp")
      val out = new DataOutputStream(new BufferedOutputStream(Files.newOutputStream(tmp)))
      try { out.writeInt(ref.length); ref.foreach(out.writeLong) } finally out.close()
      Files.move(tmp, file, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
      ref
    }
  }
}

/** One join's result held against the reference.
  *
  * A returned row is correct if `id1 < id2`, it repeats no earlier row, and
  * its NSLD recomputed with `TokenDistances.nsld` equals the reported value
  * and is at most T. A join passes only if every row is correct and the
  * distinct pairs are exactly the reference set.
  */
final case class JoinCheck(returned: Int, correct: Int, expected: Int, found: Int) {
  def exact: Boolean = returned == correct && correct == expected && found == expected
}

object JoinCheck {
  def of(rows: Array[(Long, Long, Double)], reference: Array[Long], t: Double,
            nsld: (Long, Long) => Double): JoinCheck = {
    val seen = mutable.HashSet.empty[Long]
    var correct = 0
    var found = 0
    rows.foreach { case (id1, id2, d) =>
      val key = Reference.pack(math.min(id1, id2), math.max(id1, id2))
      val fresh = seen.add(key)
      if (fresh && java.util.Arrays.binarySearch(reference, key) >= 0) found += 1
      if (id1 < id2 && fresh && d <= t && nsld(id1, id2) == d) correct += 1
    }
    JoinCheck(rows.length, correct, reference.length, found)
  }
}
