package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths, StandardOpenOption}
import java.util.concurrent.Executors
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.PerfbenchBus
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.baselines.NaiveDBSCAN
import repro.core._
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point. Modes:
  *
  *  - `run`: one workload, one seed. `--trace 0` reports the end-to-end
  *    metrics, `--trace 1` the per-layer ones. The last stdout line is the
  *    result object.
  *  - `digests`: computes the missing reference digests with NaiveDBSCAN
  *    and appends them to the digest file.
  *  - `smoke`: every workload at a tiny n, both trace settings, plus a check
  *    that the correctness gate rejects corrupted results.
  */
object Main {

  final case class Opts(kv: Map[String, String]) {
    def apply(k: String): String =
      kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    def get(k: String, default: String): String = kv.getOrElse(k, default)
  }

  def parse(argv: Array[String]): Opts = {
    require(argv.length % 2 == 0 && argv.grouped(2).forall(_.head.startsWith("--")),
      s"arguments must be --key value pairs: ${argv.mkString(" ")}")
    Opts(argv.grouped(2).map(a => a(0).drop(2) -> a(1)).toMap)
  }

  def main(argv: Array[String]): Unit = {
    val o = parse(argv)
    val t0 = System.nanoTime()
    val spark = session(o("cores").toInt, o("state"))
    val sparkStartS = (System.nanoTime() - t0) / 1e9
    val code =
      try o("mode") match {
        case "run"     => runMode(spark, o, sparkStartS)
        case "digests" => digestMode(spark, o)
        case "smoke"   => smokeMode(spark, o)
        case m         => throw new IllegalArgumentException(s"unknown mode $m")
      } finally spark.stop()
    sys.exit(code)
  }

  def session(cores: Int, state: String): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(state, "spark-local").getPath)
      .getOrCreate()

  // ---------------------------------------------------------------- inputs

  /** The points the program receives: the generator's output in an order
    * permuted by `seed`, as a persisted and materialized RDD. */
  def prepare(spark: SparkSession, pts: Array[Pt], seed: Long): RDD[Pt] = {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(Workloads.permuted(pts, seed).toSeq, sc.defaultParallelism * 2)
      .persist(StorageLevel.MEMORY_ONLY)
    rdd.count()
    rdd
  }

  /** Reference digests: `workload  data_seed  n  sha256  cores clusters border noise`. */
  final case class Ref(workload: String, dataSeed: Long, n: Long, sha: String, summary: Digest.Summary)

  def loadRefs(path: String): Seq[Ref] =
    if (!new File(path).exists) Nil
    else Files.readAllLines(Paths.get(path)).asScala.toSeq
      .filter(l => l.nonEmpty && !l.startsWith("#"))
      .map { l =>
        val f = l.split("\t")
        Ref(f(0), f(1).toLong, f(2).toLong, f(3), Digest.Summary(f(4).toInt, f(5).toInt, f(6).toInt, f(7).toInt))
      }

  // ------------------------------------------------------- correctness gate

  /** Counts attempted and failed calls; a call fails when it throws, or when
    * its output's digest or its counts (core points, clusters, border points,
    * noise) differ from the reference. The digest alone would not see a
    * wrong `numClusters`. */
  final class Gate(expected: String, summary: Digest.Summary) {
    var attempted = 0
    var failed = 0

    def check(r: DBSCANResult): Boolean = {
      val got = Digest.summary(r)
      val ok = got == summary && Digest.of(r) == expected
      if (!ok) Console.err.println(s"[perfbench] output differs from the reference: $got, expected $summary")
      ok
    }

    /** Runs `body` once; returns its output if it succeeded and was correct. */
    def attempt[T](body: => T)(result: T => DBSCANResult): Option[T] = {
      attempted += 1
      try {
        val out = body
        if (check(result(out))) Some(out) else { failed += 1; None }
      } catch {
        case NonFatal(e) =>
          failed += 1
          Console.err.println(s"[perfbench] call failed: $e")
          e.printStackTrace()
          None
      }
    }

    /** Wall time of one correct call of `body`. */
    def timed(body: => DBSCANResult): Option[Double] =
      attempt {
        val t0 = System.nanoTime()
        val r = body
        (r, (System.nanoTime() - t0) / 1e9)
      }(_._1).map(_._2)
  }

  // ------------------------------------------------------------ measuring

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  final case class Warm(times: Seq[Option[Double]], totalS: Double) {
    def firstCall: Option[Double] = times.headOption.flatten
  }

  /** Warm-up calls; the first one in a fresh JVM is what a one-shot job pays. */
  def warmUp(spark: SparkSession, w: Workload, rdd: RDD[Pt], gate: Gate, calls: Int): Warm = {
    val t0 = System.nanoTime()
    val times = (1 to calls).map(_ => gate.timed(DBSCAN.run(spark, rdd, w.d, w.cfg)))
    Warm(times, (System.nanoTime() - t0) / 1e9)
  }

  /** Closed loop of untraced calls for `seconds` (at least one call). */
  def timedLoop(spark: SparkSession, w: Workload, rdd: RDD[Pt], gate: Gate,
                seconds: Double): Seq[Double] = {
    val out = Seq.newBuilder[Double]
    val t0 = System.nanoTime()
    do out ++= gate.timed(DBSCAN.run(spark, rdd, w.d, w.cfg))
    while ((System.nanoTime() - t0) / 1e9 < seconds)
    out.result()
  }

  /** Largest heap occupancy right after a garbage collection while `body`
    * runs: the peak live heap, unlike raw peaks, which mostly measure how
    * full the young generation was allowed to get. */
  def peakLiveHeapMb[T](body: => T): (T, Double) = {
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
    val peak = new AtomicLong(0L)
    val listener = new NotificationListener {
      def handleNotification(n: Notification, hb: AnyRef): Unit =
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
            .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
          peak.accumulateAndGet(used, math.max(_, _))
        }
    }
    val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect {
      case e: NotificationEmitter => e
    }
    emitters.foreach(_.addNotificationListener(listener, null, null))
    val out = try body finally emitters.foreach(_.removeNotificationListener(listener))
    (out, peak.get / JobLog.MB)
  }

  /** End-to-end metrics, tracing off. */
  def endToEnd(spark: SparkSession, w: Workload, input: () => Array[Pt], seed: Long, gate: Gate,
               warmups: Int, preps: Int, seconds: Double, sparkStartS: Double): Map[String, Double] = {
    var rdd: RDD[Pt] = null
    var n = 0
    // Input generation is repeated and its median taken, to steady setup_s.
    val prepS = (1 to preps).map { _ =>
      if (rdd != null) rdd.unpersist(blocking = true)
      val t0 = System.nanoTime()
      val pts = input()
      n = pts.length
      rdd = prepare(spark, pts, seed)
      (System.nanoTime() - t0) / 1e9
    }
    val warm = warmUp(spark, w, rdd, gate, warmups)
    val samples = timedLoop(spark, w, rdd, gate, seconds)
    rdd.unpersist(blocking = true)
    println(f"[perfbench] ${w.name}: ${samples.length} timed calls, " +
      f"spark start ${sparkStartS}%.3f s, input ${prepS.map(s => f"$s%.3f").mkString("/")} s, " +
      f"warm-up ${warm.totalS}%.3f s (${warm.times.flatten.map(s => f"$s%.3f").mkString(" ")}), " +
      f"timed ${samples.map(s => f"$s%.3f").mkString(" ")}")
    val m = Map.newBuilder[String, Double]
    if (samples.nonEmpty) {
      val med = median(samples)
      m += "dbscan_s" -> med
      m += "points_per_s" -> n / med
    }
    m += "setup_s" -> (sparkStartS + median(prepS) + warm.totalS)
    m.result()
  }

  /** Spark-side facts reported per layer, besides `spark_s` and `driver_s`. */
  val SparkFacts: Map[String, Seq[String]] = Map(
    "cellindex" -> Seq("tasks", "task_cpu_s", "gc_s", "shuffle_mb", "result_mb", "task_skew"),
    "markcore" -> Seq("task_cpu_s", "gc_s", "task_skew"),
    "connctx" -> Nil,
    "clustercore" -> Seq("jobs", "task_cpu_s", "task_skew"),
    "clusterborder" -> Seq("task_cpu_s", "task_skew"),
  )

  /** Per-layer metrics: one traced replay at the configured parallelism and
    * one at parallelism 1, after warm-up and an untraced timed loop. */
  def perLayer(spark: SparkSession, w: Workload, pts: Array[Pt], seed: Long, gate: Gate,
               warmups: Int, seconds: Double, traceName: String,
               state: String): (Map[String, Double], Seq[String]) = {
    val rdd = prepare(spark, pts, seed)
    // The first call and the peak heap spread too widely across runs to
    // carry a regression bound, so they are reported here, untraced.
    val warm = warmUp(spark, w, rdd, gate, warmups)
    val (samples, heapPeakMb) = peakLiveHeapMb(timedLoop(spark, w, rdd, gate, seconds))
    val reference = referenceCall(spark, w, rdd, gate)
    val par = gate.attempt(Replay.run(spark, rdd, w.d, w.cfg, s"$traceName-par"))(_.result)
    val serial = gate.attempt(Replay.run(spark, rdd, w.d, w.cfg.copy(parallelism = 1),
      s"$traceName-serial"))(_.result)
    rdd.unpersist(blocking = true)
    val problems = Seq.newBuilder[String]
    val m = Map.newBuilder[String, Double]
    m += "driver.heap_peak_mb" -> heapPeakMb
    warm.firstCall.foreach(m += "driver.first_call_s" -> _)
    for (t <- par) {
      val tr = t.tracer
      val root = tr.named("dbscan")
      for (layer <- Replay.Layers) {
        val s = tr.named(layer)
        val f = t.log.facts(tr.subtree(s))
        m += s"$layer.wall_s" -> s.seconds
        if (layer != "broadcast") {
          m += s"$layer.spark_s" -> f("spark_s")
          m += s"$layer.driver_s" -> (s.seconds - f("spark_s"))
          SparkFacts(layer).foreach(k => m += s"$layer.$k" -> f(k))
        }
      }
      m += "markcore.qt_build_s" -> tr.named("qt_build").seconds
      m += "assemble.wall_s" -> tr.selfSeconds(root)
      m += "trace.wall_s" -> root.seconds
      if (samples.nonEmpty) m += "trace.overhead_s" -> (root.seconds - median(samples))
      m ++= t.counts
    }
    for (t <- serial; p <- par) {
      val tr = t.tracer
      val root = tr.named("dbscan")
      m += "serial.dbscan_s" -> root.seconds
      m += "serial.speedup" -> root.seconds / p.tracer.named("dbscan").seconds
      Replay.Layers.foreach(l => m += s"serial.${l}_s" -> tr.named(l).seconds)
      m += "serial.assemble_s" -> tr.selfSeconds(root)
      for ((k, v) <- p.counts if t.counts(k) != v)
        problems += s"nondeterminism: count $k differs between the parallel ($v) and serial (${t.counts(k)}) replay"
    }
    for (p <- par; (r, facts) <- reference) problems ++= drift(p, r, facts, samples)
    for (p <- par) problems ++= compareStoredCounts(p.counts, new File(state, s"counts-$traceName.tsv"))
    writeSpans(new File(state, s"trace-$traceName.jsonl"), (par ++ serial).toSeq.flatMap(_.tracer.spans))
    problems.result().foreach(p => Console.err.println(s"[perfbench] FAILED CHECK: $p"))
    (m.result(), problems.result())
  }

  /** One untraced `DBSCAN.run` call, its Spark jobs logged under the key
    * `reference`, to hold the replay against. */
  def referenceCall(spark: SparkSession, w: Workload, rdd: RDD[Pt],
                    gate: Gate): Option[(DBSCANResult, Map[String, Double])] = {
    val sc = spark.sparkContext
    val log = new JobLog
    sc.addSparkListener(log)
    sc.setLocalProperty(JobLog.SpanKey, "reference")
    try {
      gate.attempt(DBSCAN.run(spark, rdd, w.d, w.cfg))(identity).map { r =>
        PerfbenchBus.drain(sc)
        (r, log.facts(Set("reference")))
      }
    } finally {
      sc.setLocalProperty(JobLog.SpanKey, null)
      sc.removeSparkListener(log)
    }
  }

  /** The replay must still be `DBSCAN.run`: the same number of Spark jobs and
    * tasks and the same cell-graph counts as an untraced call. A mismatch
    * means the program's call sequence changed and `Replay` was not updated.
    * Phase times are printed side by side; a traced call more than 25%
    * away from the untraced median is flagged, not failed, since one call
    * is noisy. */
  def drift(t: Replay.Traced, ref: DBSCANResult, refFacts: Map[String, Double],
            samples: Seq[Double]): Seq[String] = {
    val tr = t.tracer
    val root = tr.named("dbscan")
    val facts = t.log.facts(tr.subtree(root))
    val s = ref.stats
    def l(names: String*): Double = names.map(tr.named(_).seconds).sum
    println(f"[perfbench] drift check: DBSCAN.run grid/mark/core/border " +
      f"${s.gridMs / 1e3}%.3f/${s.markCoreMs / 1e3}%.3f/${s.clusterCoreMs / 1e3}%.3f/${s.clusterBorderMs / 1e3}%.3f s, " +
      f"replay ${l("cellindex", "broadcast")}%.3f/${l("markcore")}%.3f/" +
      f"${l("connctx", "clustercore")}%.3f/${l("clusterborder")}%.3f s")
    if (samples.nonEmpty && math.abs(root.seconds / median(samples) - 1) > 0.25)
      Console.err.println(f"[perfbench] WARNING: traced call ${root.seconds}%.3f s vs untraced " +
        f"median ${median(samples)}%.3f s; check Replay against DBSCAN.run")
    val structural = Seq("jobs", "tasks").collect {
      case k if facts(k) != refFacts(k) => s"Spark $k: DBSCAN.run ${refFacts(k)}, replay ${facts(k)}"
    } ++ (if (t.result.stats.graph != s.graph) Seq(s"cell graph: DBSCAN.run ${s.graph}, replay ${t.result.stats.graph}")
          else Nil)
    structural.map(m => s"replay no longer matches DBSCAN.run ($m); update Replay.scala")
  }

  /** Counts of an earlier run of the same input must repeat exactly. */
  def compareStoredCounts(counts: Map[String, Double], file: File): Seq[String] =
    if (file.exists) {
      val before = Files.readAllLines(file.toPath).asScala.map(_.split("\t"))
        .map(a => a(0) -> a(1).toDouble).toMap
      counts.toSeq.sorted.collect {
        case (k, v) if before.get(k).exists(_ != v) =>
          s"nondeterminism: count $k differs from an earlier run of the same seed: ${before(k)} then $v"
      }
    } else {
      Files.write(file.toPath, counts.toSeq.sorted.map { case (k, v) => s"$k\t$v" }.asJava)
      Nil
    }

  def writeSpans(file: File, spans: Seq[Span]): Unit = {
    val out = new PrintWriter(file)
    try spans.foreach(s => out.println(s.json)) finally out.close()
  }

  // --------------------------------------------------------------- output

  /** Unit of a metric, from its name. */
  def unitOf(name: String): String = {
    val leaf = name.split('.').last
    if (leaf == "points_per_s") "1/s"
    else if (leaf.endsWith("_s")) "s"
    else if (leaf.endsWith("_mb")) "MB"
    else if (leaf.endsWith("_ratio") || leaf == "task_skew" || leaf == "speedup") "ratio"
    else "count"
  }

  def resultLine(correct: Boolean, attempted: Int, failed: Int, metrics: Map[String, Double]): String = {
    val ms = metrics.toSeq.sortBy(_._1).filter(kv => java.lang.Double.isFinite(kv._2)).map {
      case (k, v) => s""""$k": {"value": ${java.lang.Double.toString(v)}, "unit": "${unitOf(k)}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  // ----------------------------------------------------------------- modes

  def runMode(spark: SparkSession, o: Opts, sparkStartS: Double): Int = {
    val w = Workloads.byName(o("workload"))
    val seed = o("seed").toLong
    val holdout = o.get("holdout", "0") == "1"
    val dataSeed = Workloads.dataSeed(seed, holdout)
    val n = Workloads.N
    val ref = loadRefs(o("digests")).find(r => r.workload == w.name && r.dataSeed == dataSeed && r.n == n)
      .getOrElse(throw new IllegalStateException(
        s"no reference digest for ${w.name} data seed $dataSeed n=$n in ${o("digests")}"))
    val gate = new Gate(ref.sha, ref.summary)
    val input = () => Workloads.points(spark, w, n, dataSeed)
    val warmups = o("warmups").toInt
    val seconds = o("seconds").toDouble
    println(s"[perfbench] ${w.name} seed=$seed data_seed=$dataSeed n=$n cfg=${w.cfg} " +
      s"master=${spark.sparkContext.master} spark=${spark.version} " +
      s"jvm=${System.getProperty("java.vm.version")} " +
      s"heap_max_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)} reference: ${ref.summary}")
    val (metrics, problems) =
      if (o("trace") == "1")
        perLayer(spark, w, input(), seed, gate, warmups, seconds,
          s"${w.name}-$dataSeed-$seed-${o("build")}", o("state"))
      else (endToEnd(spark, w, input, seed, gate, warmups, o("preps").toInt, seconds, sparkStartS), Nil)
    val correct = gate.failed == 0 && problems.isEmpty
    println(resultLine(correct, gate.attempted, gate.failed, metrics))
    if (correct) 0 else 1
  }

  def digestMode(spark: SparkSession, o: Opts): Int = {
    val file = o("digests")
    val n = Workloads.N
    val have = loadRefs(file).map(r => (r.workload, r.dataSeed, r.n)).toSet
    // Costliest first (geolife-skew's dense core makes NaiveDBSCAN quadratic).
    val todo = for {
      w <- Workloads.all.sortBy(_.name != "geolife-skew")
      s <- Workloads.Pool :+ Workloads.HoldOut
      if !have((w.name, s, n))
    } yield (w, s)
    val pool = Executors.newFixedThreadPool(o("cores").toInt)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val jobs = todo.map { case (w, s) =>
        Future {
          val pts = Workloads.points(spark, w, n, s)
          val t0 = System.nanoTime()
          val r = NaiveDBSCAN.run(pts, w.cfg.eps, w.cfg.minPts)
          val sum = Digest.summary(r)
          val line = Seq(w.name, s, n, Digest.of(r), sum.cores, sum.clusters, sum.border, sum.noise)
            .mkString("\t")
          file.synchronized {
            Files.write(Paths.get(file), Seq(line).asJava,
              StandardOpenOption.CREATE, StandardOpenOption.APPEND)
          }
          println(f"[perfbench] digest ${w.name} data_seed=$s: ${(System.nanoTime() - t0) / 1e9}%.1f s")
        }
      }
      Await.result(Future.sequence(jobs), Duration.Inf)
    } finally pool.shutdown()
    0
  }

  def smokeMode(spark: SparkSession, o: Opts): Int = {
    val n = o("n").toLong
    val seconds = o("seconds").toDouble
    var ok = true
    for (w <- Workloads.all) {
      val pts = Workloads.points(spark, w, n, Workloads.Pool.head)
      val expected = NaiveDBSCAN.run(pts, w.cfg.eps, w.cfg.minPts)
      for (trace <- Seq(0, 1)) {
        val gate = new Gate(Digest.of(expected), Digest.summary(expected))
        val (m, problems) =
          if (trace == 0) (endToEnd(spark, w, () => pts, 7, gate, 1, 2, seconds, 0.0), Nil)
          else perLayer(spark, w, pts, 7, gate, 1, seconds, s"smoke-${w.name}-${o("build")}", o("state"))
        ok &&= gate.failed == 0 && problems.isEmpty
        println(s"""SMOKE {"workload": "${w.name}", "trace": $trace, "result": """ +
          resultLine(gate.failed == 0 && problems.isEmpty, gate.attempted, gate.failed, m) + "}")
      }
    }
    // The gate must reject a result with one core flag flipped, one with two
    // clusters merged and one that reports a cluster too many.
    val w = Workloads.byName("simden-3d")
    val pts = Workloads.points(spark, w, n, Workloads.Pool.head)
    val ref = NaiveDBSCAN.run(pts, w.cfg.eps, w.cfg.minPts)
    require(ref.numClusters >= 2, "smoke input needs two clusters")
    val gate = new Gate(Digest.of(ref), Digest.summary(ref))
    val core = ref.isCore.indexWhere(identity)
    val flipped = ref.copy(isCore = ref.isCore.updated(core, false),
      coreCluster = ref.coreCluster.updated(core, -1))
    val merged = ref.copy(coreCluster = ref.coreCluster.map(c => if (c == 1) 0 else c))
    val extra = ref.copy(numClusters = ref.numClusters + 1)
    val accepts = gate.check(ref)
    val rejectsFlip = !gate.check(flipped)
    val rejectsMerge = !gate.check(merged)
    val rejectsExtra = !gate.check(extra)
    println(s"""SMOKE-GATE {"accepts_reference": $accepts, "rejects_flipped_core": $rejectsFlip, """ +
      s""""rejects_merged_clusters": $rejectsMerge, "rejects_extra_cluster": $rejectsExtra}""")
    if (ok && accepts && rejectsFlip && rejectsMerge && rejectsExtra) 0 else 1
  }
}
