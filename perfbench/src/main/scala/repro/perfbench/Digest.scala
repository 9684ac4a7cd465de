package repro.perfbench

import java.security.MessageDigest
import repro.core.DBSCANResult

/** Canonical fingerprint of a clustering, equal for two results exactly when
  * they agree up to renaming of clusters (Schubert et al., TODS 2017): same
  * core flags, same partition of the core points, same cluster set for every
  * border point. A cluster's canonical label is its smallest core point id. */
object Digest {

  final case class Summary(cores: Int, clusters: Int, border: Int, noise: Int) {
    override def toString = s"cores=$cores clusters=$clusters border=$border noise=$noise"
  }

  def summary(r: DBSCANResult): Summary = {
    var cores = 0; var border = 0; var noise = 0
    var i = 0
    while (i < r.n) {
      if (r.isCore(i)) cores += 1
      else if (r.borderClusters(i).nonEmpty) border += 1
      else noise += 1
      i += 1
    }
    Summary(cores, r.numClusters, border, noise)
  }

  /** Hex SHA-256 over, per point id in order: core flag, then the canonical
    * label (core) or the sorted canonical labels (non-core). */
  def of(r: DBSCANResult): String = {
    val label = new Array[Int](math.max(r.numClusters, 0))
    java.util.Arrays.fill(label, Int.MaxValue)
    var i = 0
    while (i < r.n) {
      if (r.isCore(i)) {
        val c = r.coreCluster(i)
        require(c >= 0 && c < label.length, s"core point $i has cluster id $c")
        if (i < label(c)) label(c) = i
      }
      i += 1
    }
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    def put(v: Int): Unit = { buf.clear(); buf.putInt(v); md.update(buf.array(), 0, 4) }
    put(r.n)
    i = 0
    while (i < r.n) {
      if (r.isCore(i)) { put(1); put(label(r.coreCluster(i))) }
      else {
        val ls = r.borderClusters(i).map(label(_)).distinct.sorted
        put(0); put(ls.length); ls.foreach(put)
      }
      i += 1
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
