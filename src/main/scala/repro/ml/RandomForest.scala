package repro.ml

import scala.util.Random

/** From-scratch Random Forest — the paper's downstream task 𝒯.
  *
  * Bagging over [[DecisionTree]]s with per-split random feature subsets
  * (√p for classification, p/3 for regression). Deterministic in `seed`.
  */
final class RandomForest(
    val classification: Boolean,
    val nTrees: Int = 10,
    val maxDepth: Int = 7,
    val minLeaf: Int = 2,
    val seed: Long = 42L,
) extends Learner {

  override def isClassifier: Boolean = classification

  private final class ForestModel(models: Array[Model], classif: Boolean) extends Model {
    override def predict(x: Array[Double]): Double =
      if (classif) {
        val votes = scala.collection.mutable.Map.empty[Double, Int]
        models.foreach { m =>
          val v = m.predict(x)
          votes(v) = votes.getOrElse(v, 0) + 1
        }
        votes.toSeq.maxBy { case (label, c) => (c, -label) }._1
      } else {
        var s = 0.0
        models.foreach(s += _.predict(x))
        s / models.length
      }
  }

  /** Importances of the most recent fit, normalized to sum 1 (empty → zeros). */
  @transient private var lastImportances: Array[Double] = Array.empty

  def featureImportances: Array[Double] = lastImportances

  override def fit(x: Array[Array[Double]], y: Array[Double]): Model = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val p   = x(0).length
    val rng = new Random(seed)
    val subset: Int => Int =
      if (classification) q => math.max(1, math.ceil(math.sqrt(q)).toInt)
      else q => math.max(1, q / 3)
    val imp = Array.fill(p)(0.0)
    val models = Array.tabulate(nTrees) { t =>
      val treeSeed = rng.nextLong()
      val bootRng  = new Random(treeSeed ^ 0x9e3779b97f4a7c15L)
      val bootIdx  = Array.fill(x.length)(bootRng.nextInt(x.length))
      val bx       = bootIdx.map(x)
      val by       = bootIdx.map(y)
      val (m, treeImp) =
        new DecisionTree(classification, maxDepth, minLeaf, subset, treeSeed).fitWithImportances(bx, by)
      (0 until p).foreach(f => imp(f) += treeImp(f))
      m
    }
    val total = imp.sum
    lastImportances = if (total > 0) imp.map(_ / total) else imp
    new ForestModel(models, classification)
  }
}
