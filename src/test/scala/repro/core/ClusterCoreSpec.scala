package repro.core

import repro.{Oracle, SparkSpec, TestUtil}

/** ClusterCore (paper Alg. 3): core-point clustering vs DuckDB's recursive
  * connected-components over the ε-graph, for every connectivity method. */
class ClusterCoreSpec extends SparkSpec {

  /** Run grid + MarkCore + ClusterCore; return (id, rep) rows for core points
    * where rep = min core id in the point's component. */
  private def coreClusters(pts: Array[Pt], d: Int, eps: Double, minPts: Int,
                           method: GraphMethod, bucketing: Boolean): (org.apache.spark.sql.DataFrame, GraphStats) = {
    val sc = spark.sparkContext
    val idx = CellIndex.grid(sc.parallelize(pts.toSeq, 4), eps, d)
    val bcIdx = sc.broadcast(idx)
    val flags = MarkCore.run(sc, bcIdx, minPts, None)
    val bcFlags = sc.broadcast(flags)
    val ctx = ConnCtx.build(sc, bcIdx, bcFlags, method)
    val bcCtx = sc.broadcast(ctx)
    val (comp, stats) = ClusterCore.run(sc, bcIdx, bcFlags, bcCtx, method, bucketing, numBuckets = 8)
    // Canonical rep per component = min core point id.
    val cellOfPoint = new Array[Int](pts.length)
    for (c <- 0 until idx.numCells; p <- idx.pts(c)) cellOfPoint(p.id.toInt) = c
    val repOfComp = scala.collection.mutable.HashMap[Int, Long]()
    for (i <- pts.indices if flags(i)) {
      val cp = comp(cellOfPoint(i))
      if (!repOfComp.contains(cp) || repOfComp(cp) > i) repOfComp(cp) = i
    }
    val rows = pts.indices.filter(flags(_)).map(i => (i.toLong, repOfComp(comp(cellOfPoint(i)))))
    (spark.createDataFrame(rows).toDF("id", "rep"), stats)
  }

  private val methods: Seq[(String, GraphMethod, Int => Boolean)] = Seq(
    ("bcp", BcpGraph, (_: Int) => true),
    ("qt", QtGraph, (_: Int) => true),
    ("usec", UsecGraph, (d: Int) => d == 2),
    ("delaunay", DelaunayGraph, (d: Int) => d == 2),
  )

  for {
    d <- Seq(2, 3)
    (name, method, ok) <- methods
    if ok(d)
    bucketing <- Seq(false, true)
    seed <- Seq(1L, 2L)
  } test(s"core clustering matches SQL components d=$d method=$name bucketing=$bucketing seed=$seed") {
    val pts = TestUtil.blobPts(350, d, numBlobs = 4, sigma = 2.5, extent = 40.0,
      noiseFrac = 0.25, seed = seed * 31 + d)
    val eps = 2.5; val minPts = 8
    val (df, _) = coreClusters(pts, d, eps, minPts, method, bucketing)
    val sql = TestUtil.sqlDbscanPrelude(d, eps, minPts) + "SELECT id, rep FROM comp"
    Oracle.assertEquivalent(df, sql, "pts" -> TestUtil.ptsDF(spark, pts))
  }

  test("bucketing prunes connectivity queries on skewed data") {
    // One huge dense clump spread over several adjacent cells + satellites:
    // with bucketing, the big cells union first and prune later queries.
    val pts = TestUtil.blobPts(3000, 2, numBlobs = 1, sigma = 4.0, extent = 20.0,
      noiseFrac = 0.0, seed = 17L)
    val eps = 3.0; val minPts = 5
    val (_, without) = coreClusters(pts, 2, eps, minPts, BcpGraph, bucketing = false)
    val (_, withB) = coreClusters(pts, 2, eps, minPts, BcpGraph, bucketing = true)
    assert(withB.candidatePairs === without.candidatePairs)
    assert(withB.queriesRun < without.queriesRun,
      s"bucketing should prune: ${withB.queriesRun} vs ${without.queriesRun}")
  }

  test("approximate graph connects everything within eps and nothing beyond eps(1+rho)") {
    val pts = TestUtil.blobPts(400, 2, numBlobs = 3, sigma = 1.5, extent = 50.0,
      noiseFrac = 0.1, seed = 23L)
    val eps = 2.0; val minPts = 5; val rho = 0.05
    val sc = spark.sparkContext
    val idx = CellIndex.grid(sc.parallelize(pts.toSeq, 4), eps, 2)
    val bcIdx = sc.broadcast(idx)
    val flags = MarkCore.run(sc, bcIdx, minPts, None)
    val bcFlags = sc.broadcast(flags)
    val ctx = ConnCtx.build(sc, bcIdx, bcFlags, ApproxGraph(rho))
    val bcCtx = sc.broadcast(ctx)
    val (comp, _) = ClusterCore.run(sc, bcIdx, bcFlags, bcCtx, ApproxGraph(rho), bucketing = false,
      numBuckets = 8)
    val cellOfPoint = new Array[Int](pts.length)
    for (c <- 0 until idx.numCells; p <- idx.pts(c)) cellOfPoint(p.id.toInt) = c
    // Sandwich on the core partition.
    def components(radius: Double): Array[Int] = {
      val uf = new repro.geometry.UnionFind(pts.length)
      for (i <- pts.indices if flags(i); j <- pts.indices if flags(j) && j < i)
        if (Dist.leq(pts(i).x, pts(j).x, radius)) uf.union(i, j)
      pts.indices.map(uf.find).toArray
    }
    val inner = components(eps)
    val outer = components(eps * (1 + rho))
    for (i <- pts.indices if flags(i); j <- pts.indices if flags(j)) {
      val same = comp(cellOfPoint(i)) == comp(cellOfPoint(j))
      if (inner(i) == inner(j)) assert(same, s"eps-connected pair ($i,$j) split")
      if (outer(i) != outer(j)) assert(!same, s"pair ($i,$j) beyond eps(1+rho) merged")
    }
  }
}
