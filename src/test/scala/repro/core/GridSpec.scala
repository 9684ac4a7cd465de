package repro.core

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.baselines.NaiveDBSCAN

/** Grid cell construction (paper §4.1) — DataFrame assignment vs DuckDB, and
  * the CellIndex invariants every later stage relies on. */
class GridSpec extends SparkSpec {

  for {
    d <- Seq(2, 3, 5)
    eps <- Seq(3.0, 10.0)
  } test(s"DataFrame cell assignment matches DuckDB floor arithmetic d=$d eps=$eps") {
    val pts = TestUtil.uniformPts(300, d, 50.0, seed = d * 100 + eps.toInt)
    val df = TestUtil.ptsDF(spark, pts)
    val side = CellIndex.sideFor(eps, d)
    val got = CellIndex.assignCellsDF(df, (0 until d).map(j => s"x$j"), eps)
      .selectExpr("id" +: (0 until d).map(j => s"cell[$j] as c$j"): _*)
    val cols = (0 until d).map(j => s"CAST(FLOOR(x$j::DOUBLE / $side) AS INT) AS c$j").mkString(", ")
    Oracle.assertEquivalent(got, s"SELECT id::BIGINT AS id, $cols FROM pts", "pts" -> df)
  }

  for {
    d <- Seq(1, 2, 3, 4, 5, 7)
    eps <- Seq(2.0, 8.0)
  } test(s"CellIndex invariants d=$d eps=$eps") {
    val pts = TestUtil.uniformPts(500, d, 40.0, seed = d * 7 + eps.toInt)
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 4), eps, d)
    val side = CellIndex.sideFor(eps, d)

    // Every point lands in exactly one cell; ids partition [0, n).
    val allIds = idx.pts.flatten.map(_.id).sorted
    assert(allIds.toSeq === (0L until 500L))
    assert(idx.n === 500)

    // Cell extent per dimension is < side, so the diagonal is <= eps:
    // any two points of a cell are within eps of each other.
    for (c <- 0 until idx.numCells) {
      for (j <- 0 until d) assert(idx.tightHi(c)(j) - idx.tightLo(c)(j) <= side + 1e-12)
      for (p <- idx.pts(c); q <- Seq(idx.pts(c).head))
        assert(Dist.leq(p.x, q.x, eps))
      // Key consistency.
      for (p <- idx.pts(c)) assert(CellIndex.gridKey(p.x, side) === idx.keys(c))
    }

    // Neighbor lists: symmetric, complete vs brute force, self-free.
    val e2 = eps * eps
    for (a <- 0 until idx.numCells; b <- 0 until idx.numCells if a != b) {
      val near = idx.bbox(a).minSqDist(idx.bbox(b)) <= e2
      assert(idx.neighbors(a).contains(b) === near, s"cells $a,$b near=$near")
    }
    for (a <- 0 until idx.numCells; b <- idx.neighbors(a))
      assert(idx.neighbors(b).contains(a))
  }

  test("points on cell boundaries are assigned consistently") {
    val eps = math.sqrt(2.0) // side = 1.0 in 2D
    val pts = Array(
      Pt(0, Array(0.0, 0.0)), Pt(1, Array(1.0, 0.0)), Pt(2, Array(1.0 - 1e-12, 0.0)),
      Pt(3, Array(-1.0, -1.0)), Pt(4, Array(-0.5, 2.0)))
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 2), eps, 2)
    val keyOf = idx.keys.zipWithIndex.toMap
    def cellOf(p: Pt): Vector[Int] = idx.keys(idx.pts.indexWhere(_.exists(_.id == p.id)))
    assert(cellOf(pts(0)) === Vector(0, 0))
    assert(cellOf(pts(1)) === Vector(1, 0))
    assert(cellOf(pts(2)) === Vector(0, 0))
    assert(cellOf(pts(3)) === Vector(-1, -1))
    assert(keyOf.size === idx.numCells)
  }

  /** Whether `t` or one of its causes is an IllegalArgumentException. */
  private def causedByBadInput(t: Throwable): Boolean =
    Iterator.iterate(t)(_.getCause).takeWhile(_ != null).exists(_.isInstanceOf[IllegalArgumentException])

  test("cell indices beyond the Int range fail instead of merging far-apart points") {
    val pts = Array(Pt(0, Array(3e9, 0.0)), Pt(1, Array(4e9, 0.0)))
    val want = NaiveDBSCAN.run(pts, 1.0, 2)
    assert(want.numClusters === 0 && want.numNoise === 2)
    val err = intercept[Exception] {
      DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 2), 2, DBSCANConfig.exact(1.0, 2))
    }
    assert(causedByBadInput(err), err)
  }

  test("a NaN coordinate fails on grid and box cells") {
    for {
      bad <- Seq(Array(Double.NaN, 0.5), Array(0.5, Double.NaN))
      cells <- Seq(GridCells, BoxCells)
    } {
      val pts = Array(Pt(0, Array(0.0, 0.0)), Pt(1, bad), Pt(2, Array(0.5, 0.5)))
      val err = intercept[Exception] {
        DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 2), 2,
          DBSCANConfig(1.0, 2, cellMethod = cells))
      }
      assert(causedByBadInput(err), s"$cells ${bad.mkString(",")}: $err")
    }
  }

  test("point ids that repeat, leave a gap or are negative fail on grid and box cells") {
    for {
      ids <- Seq(Seq(0L, 1L, 1L), Seq(0L, 1L, 3L), Seq(-1L, 0L, 1L))
      cells <- Seq(GridCells, BoxCells)
    } {
      val pts = ids.zipWithIndex.map { case (id, i) => Pt(id, Array(i * 0.4, 0.0)) }
      val err = intercept[Exception] {
        DBSCAN.run(spark, spark.sparkContext.parallelize(pts, 2), 2,
          DBSCANConfig(1.0, 2, cellMethod = cells))
      }
      assert(causedByBadInput(err), s"$cells ${ids.mkString(",")}: $err")
    }
  }

  test("cells at the Int.MaxValue and Int.MinValue keys cluster as NaiveDBSCAN") {
    for (d <- Seq(2, 3)) {
      val eps = 1.0
      val side = CellIndex.sideFor(eps, d)
      // Several cells per axis, ending at key Int.MaxValue on even axes and
      // starting at Int.MinValue on odd ones.
      val rnd = new java.util.SplittableRandom(d)
      val pts = Array.tabulate(50) { i =>
        Pt(i, Array.tabulate(d) { a =>
          val k = if (a % 2 == 0) Int.MaxValue - 5.0 else Int.MinValue.toDouble
          (k + rnd.nextDouble() * 5.9) * side
        })
      }
      val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 3), eps, d)
      assert(idx.keys.exists(_.contains(Int.MaxValue)) && idx.keys.exists(_.contains(Int.MinValue)))
      val want = NaiveDBSCAN.run(pts, eps, 5)
      assert(want.numCore > 0 && want.numCore < pts.length, s"d=$d")
      TestUtil.assertSameClustering(
        DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 3), d, DBSCANConfig.exact(eps, 5)),
        want)
    }
  }

  test("points at computed distance eps one cell past the exact offset bound are neighbors") {
    // x / side rounds these pairs ⌈√d⌉ + 1 cells apart, while their computed
    // distance is exactly eps.
    for ((d, eps, a, b) <- Seq((1, 1.0, 0.9999999999999999, 2.0), (4, 3.7, 5.55, 9.25))) {
      val pts = Array(a, b).zipWithIndex.map { case (x, i) => Pt(i, x +: Array.fill(d - 1)(0.0)) }
      val want = NaiveDBSCAN.run(pts, eps, 2)
      assert(want.numClusters === 1)
      TestUtil.assertSameClustering(
        DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 2), d, DBSCANConfig.exact(eps, 2)),
        want)
    }
  }

  test("grid cells are built in one Spark stage with no shuffle") {
    val sc = spark.sparkContext
    val pts = TestUtil.uniformPts(2000, 3, 100.0, seed = 11)
    val input = sc.parallelize(pts.toSeq, 4)
    var jobs = 0
    var stages = 0
    var shuffleBytes = 0L
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try {
      CellIndex.grid(input, 5.0, 3)
      TestListenerBus.drain(sc)
    } finally sc.removeSparkListener(listener)
    assert((jobs, stages, shuffleBytes) === ((1, 1, 0L)))
  }

  test("empty and singleton inputs") {
    val one = CellIndex.grid(spark.sparkContext.parallelize(Seq(Pt(0, Array(1.0, 1.0)))), 1.0, 2)
    assert(one.numCells === 1)
    assert(one.neighbors(0).isEmpty)
  }
}
