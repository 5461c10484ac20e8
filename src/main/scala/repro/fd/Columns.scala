package repro.fd

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.fd.{AttrSet => AS}

/** The DataFrame column format of global attributes: attribute `i` of a
  * view is the column `a<i>`, in every evaluated (sub-)view, validator and
  * encoded snapshot.
  */
object Columns {
  def name(id: Int): String = s"a$id"

  /** `df` restricted to the columns of `attrs`, in ascending id order. */
  def select(df: DataFrame, attrs: AS.T): DataFrame =
    df.select(AS.toSeq(attrs).map(i => col(name(i))): _*)

  /** Collect the columns of `attrs` and dictionary-encode them. */
  def encode(df: DataFrame, attrs: AS.T): EncodedTable =
    EncodedTable.fromDataFrame(select(df, attrs), AS.toSeq(attrs))
}
