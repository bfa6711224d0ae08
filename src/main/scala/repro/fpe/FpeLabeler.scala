package repro.fpe

import org.apache.spark.sql.SparkSession
import repro.FanOut
import repro.core.{FeatExpr, Ops, Raw}
import repro.data.TabularData
import repro.ml.{CrossVal, RandomForest}
import scala.util.Random

/** Equ. 3 — label feature effectiveness on the public pre-training datasets.
  *
  * For dataset i with base score A₀ⁱ, feature j is labeled effective (1) iff
  * removing it costs more than `thre`: A₀ⁱ − Aⱼⁱ > thre. The (dataset ×
  * feature) leave-one-out grid is embarrassingly parallel and fans out as a
  * Spark job when a session is supplied.
  */
object FpeLabeler {

  /** One labeled training example for the Feature-Validness Task. */
  final case class LabeledFeature(
      dataset: String,
      featureIdx: Int,
      values: Array[Double],
      gain: Double, // A₀ − Aⱼ: positive ⇒ feature was pulling its weight
      label: Int,
  ) extends Serializable

  final case class Config(
      thre: Double = 0.01,
      folds: Int = 3,
      rfTrees: Int = 8,
      rfDepth: Int = 6,
      seed: Long = 5L,
  ) extends Serializable

  private def cvScore(d: TabularData, cfg: Config): Double =
    CrossVal.score(
      d.x, d.y,
      new RandomForest(d.classification, cfg.rfTrees, cfg.rfDepth, seed = cfg.seed),
      cfg.folds, cfg.seed,
    )

  /** Equ. 3 for feature j of `d`, whose full-feature score is `a0`. */
  private def labelFeature(d: TabularData, j: Int, a0: Double, cfg: Config): LabeledFeature = {
    val residual = d.select((0 until d.nFeatures).filter(_ != j))
    val aj       = if (d.nFeatures == 1) 0.0 else cvScore(residual, cfg)
    val gain     = a0 - aj
    LabeledFeature(d.name, j, d.column(j), gain, if (gain > cfg.thre) 1 else 0)
  }

  /** Label one dataset locally. */
  def labelDataset(d: TabularData, cfg: Config): Seq[LabeledFeature] =
    labelAll(Seq(d), cfg)

  /** Label randomly *generated* transformation features on one dataset by
    * their add-one-in gain: label 1 iff score(D ∪ {f}) − score(D) > thre.
    *
    * The paper's Equ. 3 labels original features by leave-one-out; at
    * deployment, however, the FPE model judges *generated* features, whose
    * value distributions (products, ratios, sawtooth modulos, …) never occur
    * among raw columns. Mixing add-one-in labels over generated candidates
    * into pre-training closes that distribution gap (DESIGN.md §2).
    */
  def labelGenerated(d: TabularData, cfg: Config, nGen: Int): Seq[LabeledFeature] = {
    val rng  = new Random(cfg.seed ^ d.name.hashCode.toLong)
    val a0   = cvScore(d, cfg)
    val cols = d.columns
    val memo = scala.collection.mutable.Map.empty[String, Array[Double]]
    (0 until nGen).map { k =>
      val op    = Ops.all(rng.nextInt(Ops.all.length))
      val i     = rng.nextInt(d.nFeatures)
      val j     = rng.nextInt(d.nFeatures)
      val inner = FeatExpr.derive(op, Raw(i), Raw(j))
      val e =
        if (rng.nextDouble() < 0.3) // some order-2 candidates
          FeatExpr.derive(Ops.all(rng.nextInt(Ops.all.length)), inner,
            Raw(rng.nextInt(d.nFeatures)))
        else inner
      val f    = e.evalLocal(cols, memo)
      val gain = cvScore(d.withColumns(Seq(f)), cfg) - a0
      LabeledFeature(d.name, d.nFeatures + k, f, gain, if (gain > cfg.thre) 1 else 0)
    }
  }

  /** Label all datasets, in input order; with a SparkSession the (dataset,
    * feature) pairs run as one task each.
    */
  def labelAll(
      datasets: Seq[TabularData],
      cfg: Config = Config(),
      spark: Option[SparkSession] = None,
  ): Seq[LabeledFeature] = {
    val ds    = datasets.toVector
    val a0    = ds.map(cvScore(_, cfg))
    val pairs = for { i <- ds.indices; j <- 0 until ds(i).nFeatures } yield (i, j)
    FanOut(spark, pairs) { case (i, j) => labelFeature(ds(i), j, a0(i), cfg) }
  }

  /** Equ. 3 leave-one-out labels plus add-one-in labels over generated
    * candidates — the full FPE pre-training set (both phases fan out on
    * Spark when a session is supplied).
    */
  def labelAllWithGenerated(
      datasets: Seq[TabularData],
      cfg: Config = Config(),
      genPerDataset: Int = 8,
      spark: Option[SparkSession] = None,
  ): Seq[LabeledFeature] =
    labelAll(datasets, cfg, spark) ++
      FanOut(spark, datasets)(labelGenerated(_, cfg, genPerDataset)).flatten
}
