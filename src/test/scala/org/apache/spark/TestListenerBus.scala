package org.apache.spark

/** Test access to the driver's listener bus, which is `private[spark]`. */
object TestListenerBus {
  /** Blocks until every event posted so far reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
