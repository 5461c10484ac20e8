package org.apache.spark

/** Access to the listener bus, which is private to Spark's packages. */
object TestListenerBus {
  /** Wait until every queued listener event has been delivered. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
