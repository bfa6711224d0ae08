package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Spans recorded by the benchmark around its calls into the program's
  * layers (data, fpe, hash, ml, core, spark). Spans are kept in memory and
  * written out as JSON lines when the run ends. A disabled tracer only
  * evaluates the body, so the end-to-end runs carry no tracing cost.
  *
  * Single-threaded: spans must be opened and closed on one thread.
  */
final class Tracer(val enabled: Boolean) {

  final case class Span(
      id: Int,
      parent: Int,
      layer: String,
      name: String,
      startNs: Long,
      endNs: Long,
      counts: Map[String, Double],
  ) {
    def durNs: Long = endNs - startNs
  }

  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var stack  = List.empty[(Int, mutable.Map[String, Double])]
  private var nextId = 1
  private val origin = System.nanoTime()

  def apply[A](layer: String, name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = nextId
      val parent = stack.headOption.map(_._1).getOrElse(0)
      val counts = mutable.Map.empty[String, Double]
      nextId += 1
      stack = (id, counts) :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        spans += Span(id, parent, layer, name, t0 - origin, t1 - origin, counts.toMap)
      }
    }

  /** Attach a work counter to the innermost open span. */
  def count(key: String, value: Double): Unit =
    if (enabled) stack.headOption.foreach { case (_, c) => c(key) = c.getOrElse(key, 0.0) + value }

  /** Per layer: (span count, self time in ns). Self time is a span's duration
    * minus the part covered by its child spans.
    */
  def selfTimeByLayer: Map[String, (Int, Long)] = {
    val childNs = spans.groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.groupBy(_.layer).view.mapValues { ss =>
      (ss.size, ss.map(s => s.durNs - childNs.getOrElse(s.id, 0L)).sum)
    }.toMap
  }

  def write(file: File): Unit = {
    Option(file.getParentFile).foreach(_.mkdirs())
    val pw = new PrintWriter(file)
    try spans.sortBy(_.id).foreach { s =>
      val counts = s.counts.toSeq.sortBy(_._1)
        .map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
      pw.println(
        s"""{"id":${s.id},"parent":${s.parent},"layer":${Json.str(s.layer)},""" +
          s""""name":${Json.str(s.name)},"start_ns":${s.startNs},"end_ns":${s.endNs},""" +
          s""""counts":{$counts}}""")
    }
    finally pw.close()
  }
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'            => "\\\""
      case '\\'           => "\\\\"
      case c if c < ' '   => f"\\u${c.toInt}%04x"
      case c              => c.toString
    } + "\""

  /** Every digit of the measured value; JSON has no NaN or infinity. */
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite value $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }
}
