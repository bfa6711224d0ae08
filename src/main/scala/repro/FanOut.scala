package repro

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** The one place where local and Spark execution differ: `items.map(f)`,
  * either in this thread or as a Spark job. `collect()` returns results in
  * input order, so both paths give the same sequence. The closure `f` ships
  * with the job, so it must capture only serializable data.
  */
object FanOut {

  /** One task per item, or at most `maxTasks(sc)` tasks over contiguous slices. */
  def apply[A: ClassTag, B: ClassTag](
      spark: Option[SparkSession],
      items: Seq[A],
      maxTasks: SparkContext => Int = _ => Int.MaxValue,
  )(f: A => B): Seq[B] = spark match {
    case None => items.map(f)
    case Some(s) =>
      val sc = s.sparkContext
      sc.parallelize(items, math.max(1, math.min(items.size, maxTasks(sc)))).map(f).collect().toSeq
  }
}
