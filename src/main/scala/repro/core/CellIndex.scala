package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.geometry.KDTree

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

/** The cell structure shared by every algorithm variant (paper Alg. 1 line 2).
  *
  * Holds, per non-empty cell: its key, its tight bounding box, its points,
  * and the ids of *neighboring* cells — cells whose boxes are within ε, the
  * only ones that can contain points within ε of this cell's points.
  *
  * Cells are disjoint with per-dimension extent ≤ ε/√d, so all points inside
  * one cell are within ε of each other — the invariant both MarkCore's
  * all-core shortcut and ClusterCore's cell graph rely on.
  *
  * Grid cells are built in one Spark stage with no shuffle (each partition
  * sorts its points by cell key, playing the role of the paper's
  * work-efficient semisort), and their neighbors found on the driver by a
  * sweep over the sorted keys; box cells, and grid cells above d = 4, find
  * neighbors with a k-d tree. The index is then broadcast, emulating shared
  * memory on the single-node cluster: per-cell tasks get random access to
  * any neighboring cell's points.
  */
final class CellIndex(
    val eps: Double,
    val cellSide: Double,
    val d: Int,
    val n: Long,
    val keys: Array[Vector[Int]],
    val tightLo: Array[Array[Double]],
    val tightHi: Array[Array[Double]],
    val pts: Array[Array[Pt]],
    val neighbors: Array[Array[Int]],
) extends Serializable {

  def numCells: Int = keys.length
  def size(c: Int): Int = pts(c).length
  def bbox(c: Int): BBox = BBox(tightLo(c), tightHi(c))

  /** Allocation-free squared distance from `x` to cell `c`'s tight box —
    * the hot-path bbox prefilter in MarkCore / ClusterBorder. */
  def minSqDistToCell(c: Int, x: Array[Double]): Double = {
    val lo = tightLo(c); val hi = tightHi(c)
    var s = 0.0; var j = 0
    while (j < x.length) {
      val v = x(j)
      val t = if (v < lo(j)) lo(j) - v else if (v > hi(j)) v - hi(j) else 0.0
      s += t * t; j += 1
    }
    s
  }

  /** Root corner for the cell's quadtree (hypercube of side `cellSide`). */
  def qtLo(c: Int): Array[Double] = tightLo(c)

  /** Serialize as flat primitive arrays — the index is broadcast once per
    * run and Java-serializing millions of boxed Pt objects would dominate
    * the runtime of every small benchmark. */
  private def writeReplace(): AnyRef = {
    val m = numCells
    val sizes = Array.tabulate(m)(size)
    val total = sizes.sum
    val ids = new Array[Long](total)
    val coords = new Array[Double](total * d)
    val keysFlat = new Array[Int](m * d)
    val loFlat = new Array[Double](m * d)
    val hiFlat = new Array[Double](m * d)
    var off = 0
    var c = 0
    while (c < m) {
      val ps = pts(c)
      var i = 0
      while (i < ps.length) {
        ids(off + i) = ps(i).id
        System.arraycopy(ps(i).x, 0, coords, (off + i) * d, d)
        i += 1
      }
      var j = 0
      while (j < d) {
        keysFlat(c * d + j) = keys(c)(j)
        loFlat(c * d + j) = tightLo(c)(j)
        hiFlat(c * d + j) = tightHi(c)(j)
        j += 1
      }
      off += ps.length
      c += 1
    }
    val nbrSizes = Array.tabulate(m)(neighbors(_).length)
    val nbrs = neighbors.flatten
    CellIndex.Packed(eps, cellSide, d, n, sizes, keysFlat, ids, coords,
      loFlat, hiFlat, nbrSizes, nbrs)
  }
}

object CellIndex {

  /** Flat-array serialization proxy for [[CellIndex]] (see writeReplace). */
  private[core] final case class Packed(
      eps: Double, side: Double, d: Int, n: Long, sizes: Array[Int],
      keysFlat: Array[Int], ids: Array[Long], coords: Array[Double],
      loFlat: Array[Double], hiFlat: Array[Double],
      nbrSizes: Array[Int], nbrs: Array[Int]) extends Serializable {
    private def readResolve(): AnyRef = {
      val m = sizes.length
      val keys = Array.tabulate(m)(c => keysFlat.slice(c * d, c * d + d).toVector)
      val lo = Array.tabulate(m)(c => loFlat.slice(c * d, c * d + d))
      val hi = Array.tabulate(m)(c => hiFlat.slice(c * d, c * d + d))
      val pts = new Array[Array[Pt]](m)
      var off = 0
      var c = 0
      while (c < m) {
        pts(c) = Array.tabulate(sizes(c)) { i =>
          Pt(ids(off + i), java.util.Arrays.copyOfRange(coords, (off + i) * d, (off + i) * d + d))
        }
        off += sizes(c)
        c += 1
      }
      val neighbors = new Array[Array[Int]](m)
      var noff = 0
      c = 0
      while (c < m) {
        neighbors(c) = java.util.Arrays.copyOfRange(nbrs, noff, noff + nbrSizes(c))
        noff += nbrSizes(c)
        c += 1
      }
      new CellIndex(eps, side, d, n, keys, lo, hi, pts, neighbors)
    }
  }

  /** Cell side length ε/√d (diagonal exactly ε). */
  def sideFor(eps: Double, d: Int): Double = eps / math.sqrt(d.toDouble)

  /** Integer grid key of a point (see [[cellOf]]). */
  def gridKey(x: Array[Double], side: Double): Vector[Int] =
    Vector.tabulate(x.length)(j => cellOf(x(j), side))

  /** Cell index of one coordinate. Fails on a non-finite coordinate or a cell
    * index outside the `Int` range, which `toInt` would clamp, merging cells
    * far apart. */
  private def cellOf(v: Double, side: Double): Int = {
    val f = math.floor(v / side)
    require(f >= Int.MinValue && f <= Int.MaxValue, // false for NaN too
      s"coordinate $v is not finite or its cell index exceeds the Int range at side $side")
    f.toInt
  }

  /** Catalyst-facing cell assignment: adds a `cell` array<int> column. Used
    * by tests to cross-check the grid against DuckDB's floor arithmetic. */
  def assignCellsDF(df: DataFrame, cols: Seq[String], eps: Double): DataFrame = {
    val side = sideFor(eps, cols.size)
    df.withColumn("cell", array(cols.map(c => floor(col(c) / lit(side)).cast("int")): _*))
  }

  /** Highest d whose grid neighbors come from the key sweep. Above it the
    * (2r+1)^(d-1) prefix offsets per cell reach 2401, while the k-d tree
    * visits only non-empty cells (paper §5.1). */
  private val MaxSweepD = 4

  /** Grid-based construction (paper §4.1, used for all d).
    *
    * One Spark stage and no shuffle: each partition sorts its points by cell
    * key (the paper's semisort) and ships them as one flat [[Block]]; the
    * driver merges the sorted blocks, so cells are numbered in lexicographic
    * key order, and finds neighbors by a sweep over the sorted keys (k-d tree
    * above [[MaxSweepD]]). */
  def grid(points: RDD[Pt], eps: Double, d: Int): CellIndex = {
    val side = sideFor(eps, d)
    val blocks = points.mapPartitions(it => Iterator.single(Block.of(it, side, d))).collect()
    // All blocks' cells end to end: one sorted run per block, which the
    // stable sort merges.
    val keys = blocks.flatMap(_.keys)
    val counts = blocks.flatMap(_.counts)
    val ids = blocks.flatMap(_.ids)
    val coords = blocks.flatMap(_.coords)
    val start = counts.scanLeft(0)(_ + _)
    val order = sortByKey(keys, d, counts.length)
    val cellKeys = new ArrayBuilder.ofInt
    val cells = ArrayBuffer[Array[Pt]]()
    var i = 0
    while (i < order.length) {
      var j = i
      var size = 0
      while (j < order.length && compareKeys(keys, order(i), order(j), d) == 0) {
        size += counts(order(j)); j += 1
      }
      val cell = new Array[Pt](size)
      var f = 0
      while (i < j) {
        var s = start(order(i))
        while (s < start(order(i) + 1)) {
          cell(f) = Pt(ids(s), java.util.Arrays.copyOfRange(coords, s * d, s * d + d))
          f += 1; s += 1
        }
        i += 1
      }
      var a = 0
      while (a < d) { cellKeys += keys(order(j - 1) * d + a); a += 1 }
      cells += cell
    }
    val flat = cellKeys.result()
    val sc = points.sparkContext
    finalize(cells.toArray, Array.tabulate(cells.length)(c => Vector.tabulate(d)(a => flat(c * d + a))),
      eps, side, d) { (lo, hi) =>
      if (d <= MaxSweepD) sweepNeighbors(flat, lo, hi, eps, d) else kdNeighbors(sc, lo, hi, eps)
    }
  }

  /** One partition's points grouped by cell, cells in lexicographic key
    * order: cell i has key `keys(i*d until i*d+d)` and `counts(i)` points,
    * whose ids and coordinates follow those of cell i-1 in `ids`/`coords`. */
  private final case class Block(keys: Array[Int], counts: Array[Int],
                                 ids: Array[Long], coords: Array[Double])

  private object Block {
    def of(it: Iterator[Pt], side: Double, d: Int): Block = {
      val idB = new ArrayBuilder.ofLong
      val xB = new ArrayBuilder.ofDouble
      val kB = new ArrayBuilder.ofInt
      it.foreach { p =>
        idB += p.id
        xB ++= p.x
        var a = 0
        while (a < d) { kB += cellOf(p.x(a), side); a += 1 }
      }
      val ids = idB.result(); val xs = xB.result(); val ks = kB.result()
      val order = sortByKey(ks, d, ids.length)
      val keys = new ArrayBuilder.ofInt
      val counts = new ArrayBuilder.ofInt
      val outIds = new Array[Long](ids.length)
      val outXs = new Array[Double](xs.length)
      var i = 0
      while (i < order.length) {
        val first = order(i)
        var j = i
        while (j < order.length && compareKeys(ks, first, order(j), d) == 0) {
          outIds(j) = ids(order(j))
          System.arraycopy(xs, order(j) * d, outXs, j * d, d)
          j += 1
        }
        var a = 0
        while (a < d) { keys += ks(first * d + a); a += 1 }
        counts += j - i
        i = j
      }
      Block(keys.result(), counts.result(), outIds, outXs)
    }
  }

  /** Lexicographic comparison of the d-int keys at indices `a` and `b`. */
  private def compareKeys(keys: Array[Int], a: Int, b: Int, d: Int): Int = {
    var j = 0
    while (j < d) {
      val c = Integer.compare(keys(a * d + j), keys(b * d + j))
      if (c != 0) return c
      j += 1
    }
    0
  }

  /** `0 until count` ordered by the keys they index. The sort is stable
    * (TimSort), so pre-sorted runs merge in O(count log runs). */
  private def sortByKey(keys: Array[Int], d: Int, count: Int): Array[Int] =
    Array.range(0, count).sorted(new Ordering[Int] {
      def compare(a: Int, b: Int): Int = compareKeys(keys, a, b, d)
    })

  /** Neighbor lists of grid cells numbered in lexicographic key order, by a
    * forward sweep (paper §4.1: look up the O(1) possible neighbor keys).
    *
    * Points whose keys differ by δ on one axis are more than (δ-1)·side
    * apart, so |δ| ≤ ⌈√d⌉ covers every cell within ε in exact arithmetic.
    * At square d that bound is tight (⌈√d⌉·side = ε), and the rounding of
    * x/side can put two points at computed distance ε one cell further apart
    * (d = 4, ε = 3.7: x = 5.55 and 9.25 land in cells 2 and 5), so the
    * offsets run to r = ⌊√d⌋ + 1, which is ⌈√d⌉ at every other d.
    *
    * For each offset o of the first d-1 axes one cursor walks the cells: at
    * cell c it moves to the first key ≥ (prefix(c) + o, last(c) - r) and
    * scans the run up to (prefix(c) + o, last(c) + r). The targets rise with
    * c, so each cursor only moves forward, and offsets taken in
    * lexicographic order emit each list sorted. Key arithmetic is in Long:
    * keys reach the Int bounds. */
  private def sweepNeighbors(keys: Array[Int], lo: Array[Array[Double]], hi: Array[Array[Double]],
                             eps: Double, d: Int): Array[Array[Int]] = {
    val m = lo.length
    val r = math.sqrt(d.toDouble).toInt + 1
    val w = 2 * r + 1
    val p = d - 1
    val numOff = Iterator.fill(p)(w).product
    // off(k*p + a): axis-a component of the k-th prefix offset.
    val off = new Array[Int](numOff * p)
    for (k <- 0 until numOff) {
      var x = k
      for (a <- p - 1 to 0 by -1) { off(k * p + a) = x % w - r; x /= w }
    }
    // Key j against key c shifted by prefix offset k and by `last` on the
    // last axis.
    def cmp(j: Int, c: Int, k: Int, last: Int): Int = {
      var a = 0
      while (a < d) {
        val shift = if (a < p) off(k * p + a) else last
        val t = java.lang.Long.compare(keys(j * d + a), keys(c * d + a).toLong + shift)
        if (t != 0) return t
        a += 1
      }
      0
    }
    val e2 = eps * eps
    val cursor = new Array[Int](numOff)
    val out = new Array[Array[Int]](m)
    val buf = new ArrayBuilder.ofInt
    var c = 0
    while (c < m) {
      val bb = BBox(lo(c), hi(c))
      buf.clear()
      var k = 0
      while (k < numOff) {
        var j = cursor(k)
        while (j < m && cmp(j, c, k, -r) < 0) j += 1
        cursor(k) = j
        while (j < m && cmp(j, c, k, r) <= 0) {
          if (j != c && bb.minSqDist(BBox(lo(j), hi(j))) <= e2) buf += j
          j += 1
        }
        k += 1
      }
      out(c) = buf.result()
      c += 1
    }
    out
  }

  /** Box-based construction (paper §4.2, 2D only): x-strips of width ≤ ε/√2,
    * then y-boxes of height ≤ ε/√2 inside each strip. Strip/box boundaries
    * are the same ones the paper's pointer-jumping computes: a new strip
    * starts at the first point more than ε/√2 past the current strip start. */
  def box2d(points: RDD[Pt], eps: Double): CellIndex = {
    val d = 2
    val side = sideFor(eps, d)
    // Strip boundaries from the sorted x-coordinates (driver scan over one
    // primitive array — the O(n) sequential dependence the paper removes
    // with pointer jumping; at single-node scale this scan is negligible).
    val xs = points.map(_.x(0)).collect()
    java.util.Arrays.sort(xs)
    val stripStarts = boundaries(xs, side)
    val bcStrips = points.sparkContext.broadcast(stripStarts)
    val withStrip = points.map { p => (lastLeq(bcStrips.value, p.x(0)), p) }
    // Per-strip y boundaries.
    val yBounds = withStrip
      .map { case (s, p) => (s, p.x(1)) }
      .groupByKey()
      .mapValues { ys => val a = ys.toArray; java.util.Arrays.sort(a); boundaries(a, side) }
      .collect()
      .toMap
    val bcY = points.sparkContext.broadcast(yBounds)
    val grouped = withStrip
      .map { case (s, p) => (Vector(s, lastLeq(bcY.value(s), p.x(1))), p) }
      .groupByKey()
      .mapValues(_.toArray)
      .collect()
    bcStrips.destroy(); bcY.destroy()
    finalize(grouped.map(_._2), grouped.map(_._1), eps, side, d) { (lo, hi) =>
      kdNeighbors(points.sparkContext, lo, hi, eps)
    }
  }

  /** Starts of consecutive intervals of width `side` over sorted values,
    * which must be finite (a sort puts NaN last). */
  private def boundaries(sorted: Array[Double], side: Double): Array[Double] = {
    require(sorted.isEmpty || (sorted(0) > Double.NegativeInfinity &&
      sorted.last < Double.PositiveInfinity), "box cells need finite coordinates")
    val out = ArrayBuffer[Double]()
    var i = 0
    while (i < sorted.length) {
      if (out.isEmpty || sorted(i) > out.last + side) out += sorted(i)
      i += 1
    }
    out.toArray
  }

  /** Index of the last boundary ≤ v (boundaries sorted ascending). */
  private def lastLeq(bounds: Array[Double], v: Double): Int = {
    var lo = 0; var hi = bounds.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (bounds(mid) <= v) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Shared tail: checks the point ids, computes the tight boxes, and takes
    * the neighbor lists from `neighborsOf(lo, hi)`. */
  private def finalize(cells: Array[Array[Pt]], keys: Array[Vector[Int]],
                       eps: Double, side: Double, d: Int)
                      (neighborsOf: (Array[Array[Double]], Array[Array[Double]]) => Array[Array[Int]])
      : CellIndex = {
    val n = cells.map(_.length).sum
    // Every later stage indexes plain arrays by point id (Pt): a repeated id
    // would silently merge two points, one outside [0, n) fail mid-run.
    val seen = new java.util.BitSet(n)
    cells.foreach(_.foreach { p =>
      require(p.id >= 0 && p.id < n && !seen.get(p.id.toInt),
        s"point ids must be distinct and in [0, $n), got ${p.id} " +
          (if (p.id >= 0 && p.id < n) "twice" else "out of range"))
      seen.set(p.id.toInt)
    })
    val boxes = cells.map(BBox.of)
    val lo = boxes.map(_.lo)
    val hi = boxes.map(_.hi)
    val neighbors = if (cells.isEmpty) Array.empty[Array[Int]] else neighborsOf(lo, hi)
    new CellIndex(eps, side, d, n, keys, lo, hi, cells, neighbors)
  }

  /** Neighbor lists via a k-d tree over cell centers (paper §5.1), one
    * parallel query per cell: centers within ε + the largest cell diagonal
    * cover every cell pair with box distance ≤ ε; exact-filter afterwards.
    * Used for box cells, which have no grid keys, and above [[MaxSweepD]]. */
  private def kdNeighbors(sc: org.apache.spark.SparkContext, lo: Array[Array[Double]],
                          hi: Array[Array[Double]], eps: Double): Array[Array[Int]] = {
    val m = lo.length
    val maxDiag = (0 until m).map(c => math.sqrt(Dist.sq(lo(c), hi(c)))).max
    val tree = KDTree.build(Array.tabulate(m)(i => Pt(i, BBox(lo(i), hi(i)).center)))
    val e2 = eps * eps
    val r = eps + maxDiag
    val bc = sc.broadcast((tree, lo, hi))
    val neighbors = Par.perCell(sc, 0 until m, m, 0) { i =>
      val (tr, loA, hiA) = bc.value
      val bb = BBox(loA(i), hiA(i))
      tr.within(bb.center, r)
        .map(_.id.toInt)
        .filter(j => j != i && bb.minSqDist(BBox(loA(j), hiA(j))) <= e2)
        .sorted
    }
    bc.destroy()
    neighbors
  }
}
