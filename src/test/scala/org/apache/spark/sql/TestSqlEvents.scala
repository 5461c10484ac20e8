package org.apache.spark.sql

import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** Access to a SQL execution's action name and query execution, which are
  * private to Spark's SQL package.
  */
object TestSqlEvents {
  /** The action that ran a SQL execution, such as "count" or "collect". */
  def actionName(e: SparkListenerSQLExecutionEnd): Option[String] = e.executionName

  /** The query execution whose plan a SQL execution ran. */
  def queryExecution(e: SparkListenerSQLExecutionEnd): QueryExecution = e.qe
}
