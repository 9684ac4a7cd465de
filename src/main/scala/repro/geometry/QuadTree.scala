package repro.geometry

import repro.core.{Dist, Pt}

/** A 2^d-tree ("quadtree" in the paper, §5.2) over the points of one grid
  * cell, supporting exact and ρ-approximate RangeCount queries.
  *
  * The root covers the cell's hypercube of side `ε/√d`; each node splits
  * into up to 2^d equal sub-cells (only non-empty children materialize).
  * Construction stops at `leafSize` points, or — for the approximate tree —
  * once the side length drops to `minSide = ρ·ε/√d` (paper depth bound
  * `l = 1 + ⌈log2 1/ρ⌉`).
  *
  * On the approximate tree an existence query answers a small leaf (side ≤
  * minSide, diagonal ≤ ερ) that meets the ε-ball by its count, without
  * scanning it; leaves that stopped early on `leafSize` are scanned exactly.
  */
final class QuadTree private (root: QuadTree.Node, val minSide: Double) extends Serializable {

  /** Exact number of points within distance `eps` of `q`. */
  def rangeCount(q: Array[Double], eps: Double): Int = {
    val e2 = eps * eps
    def go(nd: QuadTree.Node): Int = {
      val mn = nd.minSqDistTo(q)
      if (mn > e2) 0
      else if (nd.maxSqDistTo(q) <= e2) nd.count
      else nd match {
        case l: QuadTree.Leaf =>
          var c = 0; var i = 0
          while (i < l.pts.length) { if (Dist.sq(l.pts(i).x, q) <= e2) c += 1; i += 1 }
          c
        case in: QuadTree.Inner =>
          var c = 0; var i = 0
          while (i < in.kids.length) { c += go(in.kids(i)); i += 1 }
          c
      }
    }
    go(root)
  }

  /** True iff some point lies within `eps` of `q`, with early exit. On an
    * approximate tree a leaf of side ≤ `minSide` that meets the ε-ball counts
    * as a hit, so true implies a point within ε(1+ρ) and false implies none
    * within ε. `minSide` is 0 for exact trees, which makes the answer exact. */
  def existsWithin(q: Array[Double], eps: Double): Boolean = {
    val e2 = eps * eps
    def go(nd: QuadTree.Node): Boolean = {
      if (nd.minSqDistTo(q) > e2) false
      else if (nd.maxSqDistTo(q) <= e2) nd.count > 0
      else nd match {
        case l: QuadTree.Leaf =>
          if (l.side <= minSide) return l.count > 0
          var i = 0
          while (i < l.pts.length) {
            if (Dist.sq(l.pts(i).x, q) <= e2) return true
            i += 1
          }
          false
        case in: QuadTree.Inner =>
          var i = 0
          while (i < in.kids.length) { if (go(in.kids(i))) return true; i += 1 }
          false
      }
    }
    go(root)
  }

  def size: Int = root.count
}

object QuadTree {

  sealed trait Node extends Serializable {
    def lo: Array[Double]
    def side: Double
    def count: Int
    final def minSqDistTo(q: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < q.length) {
        val v = q(i)
        val t = if (v < lo(i)) lo(i) - v else if (v > lo(i) + side) v - (lo(i) + side) else 0.0
        s += t * t; i += 1
      }
      s
    }
    final def maxSqDistTo(q: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < q.length) {
        val t = math.max(math.abs(q(i) - lo(i)), math.abs(q(i) - (lo(i) + side)))
        s += t * t; i += 1
      }
      s
    }
  }
  final case class Leaf(lo: Array[Double], side: Double, pts: Array[Pt]) extends Node {
    def count: Int = pts.length
  }
  final case class Inner(lo: Array[Double], side: Double, count: Int, kids: Array[Node]) extends Node

  /** Exact-query tree for a cell with corner `lo` and side `side`. */
  def build(pts: Array[Pt], lo: Array[Double], side: Double, leafSize: Int = 16): QuadTree =
    buildApprox(pts, lo, side, 0.0, leafSize)

  /** Approximate-query tree: splits until side <= ρ·side0·? — callers pass
    * `minSide = ρ·ε/√d` directly (root side is ε/√d for grid cells). */
  def buildApprox(pts: Array[Pt], lo: Array[Double], side: Double, minSide: Double,
                  leafSize: Int = 16): QuadTree =
    new QuadTree(buildNode(pts, lo, side, minSide, leafSize), minSide)

  private def buildNode(pts: Array[Pt], lo: Array[Double], side: Double,
                        minSide: Double, leafSize: Int): Node = {
    val d = lo.length
    // Stop on small population, on reaching the approximate resolution, or on
    // a degenerate side (duplicate-point guard).
    if (pts.length <= leafSize || side <= minSide || side < 1e-9)
      Leaf(lo, side, pts)
    else {
      val half = side / 2
      // Group points by child index (one bit per dimension).
      val groups = new java.util.HashMap[Integer, scala.collection.mutable.ArrayBuffer[Pt]]()
      var i = 0
      while (i < pts.length) {
        val x = pts(i).x
        var idx = 0; var j = 0
        while (j < d) {
          if (x(j) >= lo(j) + half) idx |= (1 << j)
          j += 1
        }
        var buf = groups.get(idx)
        if (buf == null) { buf = new scala.collection.mutable.ArrayBuffer[Pt](); groups.put(idx, buf) }
        buf += pts(i)
        i += 1
      }
      if (groups.size == 1 && minSide <= 0.0) {
        // All points in one sub-cell: skip chain nodes (paper's >=2-children
        // rule) by recursing directly into the only child. For the
        // approximate tree we must keep descending to honor the side bound,
        // which the recursive call below does anyway.
        val e = groups.entrySet().iterator().next()
        val clo = childLo(lo, half, e.getKey)
        return buildNode(e.getValue.toArray, clo, half, minSide, leafSize)
      }
      val kids = new Array[Node](groups.size)
      val it = groups.entrySet().iterator()
      var k = 0
      while (it.hasNext) {
        val e = it.next()
        kids(k) = buildNode(e.getValue.toArray, childLo(lo, half, e.getKey), half, minSide, leafSize)
        k += 1
      }
      Inner(lo, side, pts.length, kids)
    }
  }

  private def childLo(lo: Array[Double], half: Double, idx: Int): Array[Double] = {
    val clo = new Array[Double](lo.length)
    var j = 0
    while (j < lo.length) {
      clo(j) = if ((idx & (1 << j)) != 0) lo(j) + half else lo(j)
      j += 1
    }
    clo
  }
}
