package org.apache.spark

/** Waits until every Spark listener event posted so far has been delivered,
  * so span attribution sees all jobs, stages and tasks of a traced call.
  * Lives in this package because the listener bus is Spark-private. */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
