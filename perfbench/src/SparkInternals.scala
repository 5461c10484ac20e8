// Accessors for Spark internals the traced run reads. They are private to
// Spark's packages, hence these objects in those packages.

package org.apache.spark {
  object BenchListenerBus {
    /** Wait until the listener bus has delivered every queued event. */
    def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
  }
}

package org.apache.spark.sql {
  import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

  object BenchSqlEvents {
    /** The action that ran a SQL execution, such as "count" or "collect". */
    def actionName(e: SparkListenerSQLExecutionEnd): Option[String] = e.executionName
  }
}
