package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geometry.QuadTree

import scala.reflect.ClassTag

/** Full configuration of one DBSCAN run — the cross product of the paper's
  * implementation variants (§7.1). */
final case class DBSCANConfig(
    eps: Double,
    minPts: Int,
    cellMethod: CellMethod = GridCells,
    coreMethod: CoreMethod = ScanCore,
    graphMethod: GraphMethod = BcpGraph,
    bucketing: Boolean = false,
    numBuckets: Int = 8,
    parallelism: Int = 0, // 0 = sc.defaultParallelism; the "thread count" knob
)

object DBSCANConfig {
  /** our-exact: scan-based MarkCore + BCP cell graph. */
  def exact(eps: Double, minPts: Int): DBSCANConfig = DBSCANConfig(eps, minPts)
  /** our-exact-qt: quadtree MarkCore + quadtree RangeCount cell graph. */
  def exactQt(eps: Double, minPts: Int): DBSCANConfig =
    DBSCANConfig(eps, minPts, coreMethod = QtCore, graphMethod = QtGraph)
  /** our-approx: scan MarkCore + approximate quadtree cell graph. */
  def approx(eps: Double, minPts: Int, rho: Double = 0.01): DBSCANConfig =
    DBSCANConfig(eps, minPts, graphMethod = ApproxGraph(rho))
  /** our-approx-qt: quadtree MarkCore + approximate quadtree cell graph. */
  def approxQt(eps: Double, minPts: Int, rho: Double = 0.01): DBSCANConfig =
    DBSCANConfig(eps, minPts, coreMethod = QtCore, graphMethod = ApproxGraph(rho))
}

/** Phase timings (ms) and graph stats of one run. */
final case class RunStats(
    gridMs: Long, markCoreMs: Long, clusterCoreMs: Long, clusterBorderMs: Long,
    graph: GraphStats) {
  def totalMs: Long = gridMs + markCoreMs + clusterCoreMs + clusterBorderMs
}

/** The clustering output, laid out as the paper's shared-memory arrays.
  *
  * Cluster ids are dense in [0, numClusters). Core points carry exactly one
  * cluster; border points carry a non-empty set; noise points carry none.
  */
final case class DBSCANResult(
    n: Int,
    isCore: Array[Boolean],
    coreCluster: Array[Int],            // cluster id for core points, else -1
    borderClusters: Array[Array[Int]],  // sorted cluster ids for border points
    numClusters: Int,
    stats: RunStats,
) {
  /** All cluster ids of point i (singleton for core, empty for noise). */
  def clustersOf(i: Int): Set[Int] =
    if (isCore(i)) Set(coreCluster(i)) else borderClusters(i).toSet
  def isNoise(i: Int): Boolean = !isCore(i) && borderClusters(i).isEmpty
  def numCore: Int = isCore.count(identity)
  def numNoise: Int = (0 until n).count(isNoise)
}

/** Partition-count policy: the number of Spark partitions plays the role of
  * the paper's thread count (speedup experiments sweep it). */
object Par {
  /** Partitions for `work` items at target parallelism `par`: small targets
    * get exactly `par` partitions (true serial/dual runs); larger ones get
    * 4x oversubscription for load balancing. */
  def parts(work: Int, par: Int): Int =
    math.max(1, math.min(work, if (par <= 2) par else par * 4))

  /** Evaluates `f` on each of `cells` as one Spark map (parallelism `par`,
    * 0 = default) and returns an array of `m` entries holding `f(c)` at each
    * `c` in `cells` and the default value elsewhere. */
  def perCell[T: ClassTag](sc: SparkContext, cells: Seq[Int], m: Int, par: Int)
                          (f: Int => T): Array[T] = {
    val p = if (par > 0) par else sc.defaultParallelism
    val out = new Array[T](m)
    sc.parallelize(cells, parts(cells.size, p)).map(c => (c, f(c))).collect()
      .foreach { case (c, v) => out(c) = v }
    out
  }
}

/** Top-level parallel DBSCAN driver (paper Alg. 1). */
object DBSCAN {

  def run(spark: SparkSession, points: RDD[Pt], d: Int, cfg: DBSCANConfig): DBSCANResult = {
    val sc = spark.sparkContext
    val par = if (cfg.parallelism > 0) cfg.parallelism else sc.defaultParallelism
    require(cfg.cellMethod == GridCells || d == 2, "box cells are 2D-only")

    var t0 = System.nanoTime()
    val idx = cfg.cellMethod match {
      case GridCells => CellIndex.grid(points, cfg.eps, d)
      case BoxCells  => CellIndex.box2d(points, cfg.eps)
    }
    val bcIdx = sc.broadcast(idx)
    val gridMs = (System.nanoTime() - t0) / 1000000

    t0 = System.nanoTime()
    val bcQt: Option[org.apache.spark.broadcast.Broadcast[Array[QuadTree]]] =
      cfg.coreMethod match {
        case QtCore   => Some(sc.broadcast(MarkCore.buildCellQuadTrees(sc, bcIdx, par)))
        case ScanCore => None
      }
    val flags = MarkCore.run(sc, bcIdx, cfg.minPts, bcQt, par)
    val bcFlags = sc.broadcast(flags)
    val markMs = (System.nanoTime() - t0) / 1000000

    t0 = System.nanoTime()
    val ctx = ConnCtx.build(sc, bcIdx, bcFlags, cfg.graphMethod, par)
    val bcCtx = sc.broadcast(ctx)
    val (comp, gStats) =
      ClusterCore.run(sc, bcIdx, bcFlags, bcCtx, cfg.graphMethod, cfg.bucketing,
        cfg.numBuckets, par)
    // Densify component ids into cluster ids.
    val compIds = comp.filter(_ >= 0).distinct.sorted
    val compToCluster = compIds.zipWithIndex.toMap
    val cellCluster = comp.map(c => if (c >= 0) compToCluster(c) else -1)
    val bcCellCluster = sc.broadcast(cellCluster)
    val coreMs = (System.nanoTime() - t0) / 1000000

    t0 = System.nanoTime()
    val border = ClusterBorder.run(sc, bcIdx, bcFlags, bcCellCluster, cfg.minPts, par)
    val borderMs = (System.nanoTime() - t0) / 1000000

    // Per-point cluster ids for core points.
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
      RunStats(gridMs, markMs, coreMs, borderMs, gStats))
  }

  /** DataFrame convenience wrapper: clusters rows of `df` on the given
    * coordinate columns, returning (id, is_core, clusters array<int>). */
  def runDF(spark: SparkSession, df: DataFrame, cols: Seq[String], cfg: DBSCANConfig): DataFrame = {
    import org.apache.spark.sql.functions._
    val d = cols.length
    val pts = df.select(col("id").cast("long"), array(cols.map(col): _*))
      .rdd.map(r => Pt(r.getLong(0), r.getSeq[Double](1).toArray))
    val res = run(spark, pts, d, cfg)
    val rows = (0 until res.n).map { i =>
      (i.toLong, res.isCore(i), res.clustersOf(i).toSeq.sorted)
    }
    spark.createDataFrame(rows).toDF("id", "is_core", "clusters")
  }
}
