package repro.perfbench

import org.apache.spark.{PerfbenchBus, SparkEnv}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geometry.QuadTree

/** One `DBSCAN.run` call replayed layer by layer under a [[Tracer]].
  *
  * The body calls the same public functions, with the same arguments and in
  * the same order, as `DBSCAN.run`; only the spans are added. Work counts
  * are derived from the layers' public outputs after the root span closes,
  * so computing them costs no traced time.
  *
  * Nothing ties this copy to `DBSCAN.run` at compile time. `Main.drift`
  * holds every replay against an untraced call (same Spark jobs, tasks and
  * cell-graph counts) and fails the run when they part. A change to the
  * call sequence of `DBSCAN.run` must therefore update this body first, as
  * a change to the benchmark, before any gain is measured with it. */
object Replay {

  /** Layer spans in call order; each is a direct child of the root `dbscan`. */
  val Layers: Seq[String] =
    Seq("cellindex", "broadcast", "markcore", "connctx", "clustercore", "clusterborder")

  final case class Traced(result: DBSCANResult, tracer: Tracer, log: JobLog,
                          counts: Map[String, Double])

  def run(spark: SparkSession, points: RDD[Pt], d: Int, cfg: DBSCANConfig,
          trace: String): Traced = {
    val sc = spark.sparkContext
    val tr = new Tracer(sc, trace)
    val log = new JobLog
    sc.addSparkListener(log)
    try {
      var idx: CellIndex = null
      var flags: Array[Boolean] = null
      var ctx: ConnCtx = null
      var graph: GraphStats = null
      var border: Array[Array[Int]] = null
      val result = tr.span("dbscan") {
        val par = if (cfg.parallelism > 0) cfg.parallelism else sc.defaultParallelism
        require(cfg.cellMethod == GridCells || d == 2, "box cells are 2D-only")

        idx = tr.span("cellindex") {
          cfg.cellMethod match {
            case GridCells => CellIndex.grid(points, cfg.eps, d)
            case BoxCells  => CellIndex.box2d(points, cfg.eps)
          }
        }
        val bcIdx = tr.span("broadcast")(sc.broadcast(idx))

        val (bcQt, bcFlags) = tr.span("markcore") {
          val bcQt: Option[Broadcast[Array[QuadTree]]] = tr.span("qt_build") {
            cfg.coreMethod match {
              case QtCore   => Some(sc.broadcast(MarkCore.buildCellQuadTrees(sc, bcIdx, par)))
              case ScanCore => None
            }
          }
          flags = MarkCore.run(sc, bcIdx, cfg.minPts, bcQt, par)
          (bcQt, sc.broadcast(flags))
        }

        val bcCtx = tr.span("connctx") {
          ctx = ConnCtx.build(sc, bcIdx, bcFlags, cfg.graphMethod, par)
          sc.broadcast(ctx)
        }
        val comp = tr.span("clustercore") {
          val (comp, g) = ClusterCore.run(sc, bcIdx, bcFlags, bcCtx, cfg.graphMethod,
            cfg.bucketing, cfg.numBuckets, par)
          graph = g
          comp
        }
        val compIds = comp.filter(_ >= 0).distinct.sorted
        val compToCluster = compIds.zipWithIndex.toMap
        val cellCluster = comp.map(c => if (c >= 0) compToCluster(c) else -1)
        val bcCellCluster = sc.broadcast(cellCluster)

        border = tr.span("clusterborder") {
          ClusterBorder.run(sc, bcIdx, bcFlags, bcCellCluster, cfg.minPts, par)
        }

        val n = idx.n.toInt
        val coreCluster = Array.fill(n)(-1)
        var c = 0
        while (c < idx.numCells) {
          if (cellCluster(c) >= 0) {
            val ps = idx.pts(c)
            var i = 0
            while (i < ps.length) {
              if (flags(ps(i).id.toInt)) coreCluster(ps(i).id.toInt) = cellCluster(c)
              i += 1
            }
          }
          c += 1
        }
        Seq(bcIdx, bcFlags, bcCtx, bcCellCluster).foreach(_.destroy())
        bcQt.foreach(_.destroy())
        DBSCANResult(n, flags, coreCluster, border, compIds.length,
          RunStats(0, 0, 0, 0, graph))
      }
      PerfbenchBus.drain(sc)
      Traced(result, tr, log, counts(idx, cfg.minPts, flags, ctx, graph, border))
    } finally sc.removeSparkListener(log)
  }

  /** Work counts from the layers' outputs; they must repeat exactly for the
    * same input. Names are `layer.metric`. */
  def counts(idx: CellIndex, minPts: Int, flags: Array[Boolean], ctx: ConnCtx,
             g: GraphStats, border: Array[Array[Int]]): Map[String, Double] = {
    val sizes = Array.tabulate(idx.numCells)(idx.size)
    val small = sizes.indices.filter(sizes(_) < minPts)
    val corePoints = flags.count(identity)
    val indexBytes = SparkEnv.get.serializer.newInstance().serialize(idx).remaining()
    val num = (x: Long) => x.toDouble
    Map(
      "cellindex.cells" -> num(idx.numCells),
      "cellindex.max_cell" -> num(if (sizes.isEmpty) 0 else sizes.max),
      "cellindex.allcore_cells" -> num(sizes.count(_ >= minPts)),
      "cellindex.neighbor_refs" -> num(idx.neighbors.map(_.length.toLong).sum),
      "broadcast.index_mb" -> indexBytes / JobLog.MB,
      "markcore.scan_points" -> num(small.map(sizes(_).toLong).sum),
      "markcore.dist_bound" -> num(small.map(c =>
        sizes(c).toLong * idx.neighbors(c).map(sizes(_).toLong).sum).sum),
      "markcore.core_points" -> num(corePoints),
      "connctx.core_cells" -> num(ctx.coreCount.count(_ > 0)),
      "clustercore.candidate_pairs" -> num(g.candidatePairs),
      "clustercore.queries" -> num(g.queriesRun),
      "clustercore.edges" -> num(g.edges),
      "clustercore.prune_ratio" ->
        (if (g.candidatePairs > 0) 1.0 - g.queriesRun.toDouble / g.candidatePairs else 0.0),
      "clustercore.hit_ratio" ->
        (if (g.queriesRun > 0) g.edges.toDouble / g.queriesRun else 0.0),
      "clusterborder.noncore_points" -> num(flags.length - corePoints),
      "clusterborder.border_points" -> num(border.count(_.nonEmpty)),
    )
  }
}
