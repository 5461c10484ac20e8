package org.apache.spark.sql

import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** Access to a SQL execution's action name, which is private to Spark's
  * SQL package.
  */
object TestSqlEvents {
  /** The action that ran a SQL execution, such as "count" or "collect". */
  def actionName(e: SparkListenerSQLExecutionEnd): Option[String] = e.executionName
}
