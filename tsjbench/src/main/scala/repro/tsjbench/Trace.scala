package repro.tsjbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** A timed call into one layer: `parent` is the enclosing span's id (-1 for
  * the run's root span); all spans of one run share the tracer's `runId`. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records nested spans in memory; [[write]] stores them when the run ends. */
final class Tracer(val runId: String) {
  private val origin = System.nanoTime()
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[T](name: String)(body: => T): T = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val start = System.nanoTime() - origin
    try body
    finally {
      done += Span(id, parent, name, start, System.nanoTime() - origin)
      open = open.tail
    }
  }

  /** Duration of the last finished span called `name`. */
  def seconds(name: String): Double =
    done.reverseIterator.find(_.name == name).map(_.seconds)
      .getOrElse(throw new NoSuchElementException(s"no span '$name'"))

  def spans: Seq[Span] = done.toSeq

  /** One JSON object per line, in the order the spans finished. */
  def write(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val lines = done.map { s =>
      s"""{"run": "$runId", "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}"""
    }
    Files.write(file, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
  }
}
