package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic tabular datasets as DataFrames, deterministic in their name or
  * seed.
  */
object SynthData {

  /** The synthetic stand-ins for the paper's 36 OpenML/UCI target datasets
    * (see DESIGN.md §2) as DataFrames with columns f0..f{p−1}, label.
    * Deterministic in the dataset name.
    */
  def tabular(spark: SparkSession, name: String): DataFrame =
    repro.data.DatasetRegistry.load(name).toDF(spark)

  /** A parameterized synthetic tabular dataset (classification or regression). */
  def tabular(spark: SparkSession, name: String, nSamples: Int, nFeatures: Int,
              classification: Boolean, seed: Long): DataFrame =
    repro.data.SyntheticTabular
      .generate(repro.data.SyntheticTabular.Spec(name, nSamples, nFeatures, classification, seed))
      .toDF(spark)
}
