package repro.perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.SpatialData

/** One benchmark workload: a generator, its dimension and one fixed config.
  *
  * ε and minPts are the dataset registry's defaults at the time the
  * benchmark was defined, copied here so that a registry change cannot
  * silently change what the benchmark (and its stored digests) measure. */
final case class Workload(name: String, d: Int, cfg: DBSCANConfig,
                          gen: (SparkSession, Long, Long) => RDD[Pt])

object Workloads {
  val N: Long = 200000L
  val MinPts = 100

  val all: Seq[Workload] = Seq(
    // Tiny cells, 89% noise: CellIndex build, scan MarkCore and
    // ClusterBorder dominate; ClusterCore is nearly idle.
    Workload("uniform-3d", 3, DBSCANConfig.exact(20, MinPts),
      (s, n, seed) => SpatialData.uniformFill(s, n, 3, seed = seed)),
    // Few dense all-core cells: one big batch of BCP queries dominates.
    Workload("simden-3d", 3, DBSCANConfig.exact(100, MinPts),
      (s, n, seed) => SpatialData.seedSpreader(s, n, 3, varden = false, seed = seed)),
    // 80% of points in a few huge cells: quadtree MarkCore, quadtree
    // cell-graph queries in size-sorted buckets, high task skew.
    Workload("geolife-skew", 3, DBSCANConfig.exactQt(40, MinPts).copy(bucketing = true),
      (s, n, seed) => SpatialData.geoLifeSim(s, n, seed = seed)),
    // The only workload on CellIndex.box2d and CellGraph.usecConnected.
    Workload("simden-2d-box", 2, DBSCANConfig(100, MinPts, BoxCells, ScanCore, UsecGraph),
      (s, n, seed) => SpatialData.seedSpreader(s, n, 2, varden = false, seed = seed)),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))

  /** Generator seeds with a stored reference digest. `--seed s` clusters the
    * points of `Pool(s mod Pool.size)`, fed in an order permuted by `s`, so
    * every seed is a distinct input whose correct output is known. */
  val Pool: Seq[Long] = Seq(1L, 2L, 3L, 4L)
  /** Generator seed never reached through `--seed`: for rechecking a claim
    * on data its author did not tune on (`--holdout`). */
  val HoldOut: Long = 1001L

  def dataSeed(seed: Long, holdout: Boolean): Long =
    if (holdout) HoldOut else Pool(Math.floorMod(seed, Pool.size.toLong).toInt)

  /** Generated points sorted by id (ids are dense in [0, n)). */
  def points(spark: SparkSession, w: Workload, n: Long, dataSeed: Long): Array[Pt] =
    w.gen(spark, n, dataSeed).collect().sortBy(_.id)

  /** Fisher-Yates permutation of `pts` driven by `seed`. */
  def permuted(pts: Array[Pt], seed: Long): Array[Pt] = {
    val out = pts.clone()
    val rnd = new java.util.SplittableRandom(seed)
    var i = out.length - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = out(i); out(i) = out(j); out(j) = t
      i -= 1
    }
    out
  }
}
