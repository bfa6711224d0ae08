package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{FeatExpr, MethodConfig, Ops, Raw, RnnPolicy}
import repro.data.TabularData
import repro.fpe.FpeModel
import repro.hash.MinHashes
import repro.ml.{CrossVal, RandomForest}
import scala.collection.mutable
import scala.util.Random

/** Replays of single layer calls at the sizes the AFE runs use, each timed
  * as the median over batches of the time per call. Every replay runs inside
  * a span of its layer.
  */
final class Replays(tracer: Tracer, seed: Long) {

  /** Results are folded in here so the JIT cannot drop a replayed call. */
  @volatile var sink: Double = 0.0

  private val Batches = 5

  private def perCallNs(layer: String, name: String, calls: Int)(body: => Double): Double =
    tracer(layer, name) {
      body // one untimed call
      val batchNs = (0 until Batches).map { _ =>
        val t0  = System.nanoTime()
        var acc = 0.0
        var i   = 0
        while (i < calls) { acc += body; i += 1 }
        sink += acc
        (System.nanoTime() - t0).toDouble / calls
      }
      tracer.count("calls", (calls * Batches + 1).toDouble)
      Main.median(batchNs)
    }

  /** MinHash signature of one 600-row column at the FPE model's variant and d. */
  def signatureUs(m: FpeModel.Trained, column: Array[Double]): Double =
    perCallNs("hash", "MinHashes.signature", 50) {
      MinHashes.signature(column, m.d, m.variant, m.seed)(0)
    } / 1e3

  /** FPE inference (signature + classifier) of one 600-row column. */
  def fpeInferUs(m: FpeModel.Trained, column: Array[Double]): Double =
    perCallNs("fpe", "Trained.p", 50)(m.p(column)) / 1e3

  private def matrix(d: TabularData, keys: Seq[String]): Array[Array[Double]] = {
    val (raw, memo) = (d.columns, mutable.Map.empty[String, Array[Double]])
    val cols = keys.map(k => FeatExpr.parse(k).evalLocal(raw, memo)).toArray
    Array.tabulate(d.nSamples)(i => cols.map(_(i)))
  }

  private def learner(d: TabularData, cfg: MethodConfig) =
    new RandomForest(d.classification, cfg.rfTrees, cfg.rfDepth, seed = cfg.seed)

  /** One downstream CV, as `Engine` runs it, at a run's final feature set. */
  def cvMs(d: TabularData, cfg: MethodConfig, keys: Seq[String]): Double = {
    val x = matrix(d, keys)
    perCallNs("ml", s"CrossVal.score ${d.name}", 1) {
      CrossVal.score(x, d.y, learner(d, cfg), cfg.folds, cfg.seed)
    } / 1e6
  }

  /** One forest fit on the training part of the first CV fold. */
  def forestFitMs(d: TabularData, cfg: MethodConfig, keys: Seq[String]): Double = {
    val x     = matrix(d, keys)
    val test  = CrossVal.folds(d.y, cfg.folds, d.classification, cfg.seed).head.toSet
    val train = x.indices.filterNot(test.contains).toArray
    val (tx, ty) = (train.map(x), train.map(d.y))
    perCallNs("ml", s"RandomForest.fit ${d.name}", 2) {
      learner(d, cfg).fit(tx, ty).predict(tx(0))
    } / 1e6
  }

  /** Materialization of one candidate with a fresh memo: every operator over
    * (f0, f1), and every operator again over that result and f2 (order 2).
    */
  def materializeUs(d: TabularData): Double = {
    val programs = Ops.all.flatMap { op =>
      val inner = FeatExpr.derive(op, Raw(0), Raw(1))
      Seq(inner, FeatExpr.derive(Ops.all((Ops.all.indexOf(op) + 1) % Ops.all.length), inner, Raw(2)))
    }
    val cols = d.columns
    perCallNs("core", "FeatExpr.evalLocal", 20) {
      programs.map(_.evalLocal(cols, mutable.Map.empty[String, Array[Double]])(0)).sum
    } / programs.size / 1e3
  }

  /** One agent step: `RnnPolicy.forward` followed by `sample`. */
  def policyStepUs(): Double = {
    val policy = new RnnPolicy(Ops.all.length, seed = seed)
    val rng    = new Random(seed)
    val x      = Array(0.5, 0.7, 0.0, 0.25)
    var h      = policy.freshHidden
    perCallNs("core", "RnnPolicy.forward+sample", 20000) {
      val (hNew, probs) = policy.forward(x, h)
      h = hNew
      policy.sample(probs, rng).toDouble
    } / 1e3
  }

  /** One round's worth of no-op Spark tasks: broadcast the selected columns
    * as `Engine.evalBatch` does, parallelize one payload per agent and
    * collect.
    */
  def sparkRoundtripMs(spark: SparkSession, d: TabularData, agents: Int): Double = {
    val sc      = spark.sparkContext
    val selCols = d.columns
    val payload = (0 until agents).map(i => (s"c$i", selCols(i % selCols.length)))
    val (y, classif) = (d.y, d.classification)
    perCallNs("spark", "broadcast+parallelize+collect", 4) {
      val bc = sc.broadcast((selCols, y, classif))
      val out = sc
        .parallelize(payload, math.min(payload.size, sc.defaultParallelism))
        .map { case (key, col) => key -> (bc.value._1.length + col.length).toDouble }
        .collect()
      bc.destroy()
      out.map(_._2).sum
    } / 1e6
  }
}
