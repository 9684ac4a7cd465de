package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed interval on the driver thread. `parent` is -1 for the root. */
final case class Span(trace: String, id: Int, parent: Int, name: String,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  def json: String =
    s"""{"trace":"$trace","id":$id,"parent":$parent,"name":"$name",""" +
      s""""start_ns":$startNs,"end_ns":$endNs}"""
}

/** Spans around calls into the program's layers, kept in memory.
  *
  * Every Spark job started inside a span carries the span's key as a local
  * property; [[JobLog]] uses it to attribute jobs, stages and tasks. */
final class Tracer(sc: SparkContext, val trace: String) {
  private val done = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    sc.setLocalProperty(JobLog.SpanKey, key(id))
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(trace, id, parent, name, t0, System.nanoTime())
      open = open.tail
      sc.setLocalProperty(JobLog.SpanKey, open.headOption.map(key).orNull)
    }
  }

  def key(id: Int): String = s"$trace/$id"
  def spans: Seq[Span] = done.toSeq.sortBy(_.id)
  def named(name: String): Span = done.find(_.name == name).getOrElse(
    throw new NoSuchElementException(s"no span '$name' in trace $trace"))

  /** Keys of a span and all its descendants. */
  def subtree(root: Span): Set[String] = {
    val kids = done.groupBy(_.parent)
    def walk(s: Span): Seq[Int] = s.id +: kids.getOrElse(s.id, Nil).toSeq.flatMap(walk)
    walk(root).map(key).toSet
  }

  /** Wall time of the root minus the time its direct children cover. */
  def selfSeconds(s: Span): Double =
    s.seconds - done.filter(_.parent == s.id).map(_.seconds).sum
}

/** Spark-side facts of traced calls, attributed to the enclosing span.
  * Registered only for the traced run and removed afterwards. */
final class JobLog extends SparkListener {
  import JobLog._
  private val jobs = mutable.Map[Int, Job]()
  private val stageSpan = mutable.Map[Int, String]()
  private val tasks = mutable.ArrayBuffer[Task]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).foreach { span =>
      jobs(e.jobId) = Job(span, e.time, e.time)
      e.stageIds.foreach(stageSpan(_) = span)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(j => jobs(e.jobId) = j.copy(endMs = e.time))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    stageSpan.get(e.stageId).filter(_ => m != null).foreach { span =>
      tasks += Task(span, e.stageId, e.stageAttemptId, e.taskInfo.duration,
        m.executorCpuTime, m.jvmGCTime, m.shuffleWriteMetrics.bytesWritten, m.resultSize)
    }
  }

  /** Spark-side metrics of the jobs started under any of `spans`. Call
    * after `PerfbenchBus.drain`, so every event has been delivered. */
  def facts(spans: Set[String]): Map[String, Double] = synchronized {
    val js = jobs.values.filter(j => spans(j.span)).toSeq.sortBy(_.startMs)
    var busyMs = 0L; var until = Long.MinValue
    js.foreach { j =>
      val from = math.max(j.startMs, until)
      if (j.endMs > from) busyMs += j.endMs - from
      until = math.max(until, j.endMs)
    }
    val ts = tasks.filter(t => spans(t.span)).toSeq
    val skew = ts.groupBy(t => (t.stage, t.attempt)).values.map { st =>
      val d = st.map(_.durationMs).sorted
      d.last.toDouble / math.max(d(d.length / 2), 1L)
    }
    Map(
      "spark_s" -> busyMs / 1e3,
      "jobs" -> js.size.toDouble,
      "tasks" -> ts.size.toDouble,
      "task_cpu_s" -> ts.map(_.cpuNs).sum / 1e9,
      "gc_s" -> ts.map(_.gcMs).sum / 1e3,
      "shuffle_mb" -> ts.map(_.shuffleBytes).sum / MB,
      "result_mb" -> ts.map(_.resultBytes).sum / MB,
      "task_skew" -> (if (skew.isEmpty) 1.0 else skew.max),
    )
  }
}

object JobLog {
  val SpanKey = "perfbench.span"
  val MB: Double = 1024.0 * 1024.0
  private final case class Job(span: String, startMs: Long, endMs: Long)
  private final case class Task(span: String, stage: Int, attempt: Int, durationMs: Long,
                                cpuNs: Long, gcMs: Long, shuffleBytes: Long, resultBytes: Long)
}
