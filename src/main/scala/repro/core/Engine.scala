package repro.core

import org.apache.spark.sql.SparkSession
import repro.FanOut
import repro.data.TabularData
import repro.fpe.FpeModel
import repro.ml.{CrossVal, RandomForest}
import scala.collection.mutable
import scala.util.Random

/** Configuration for one AFE run (defaults are the bench-scale values; see
  * DESIGN.md §2 for how they map to the paper's settings). `method` names
  * the Table III column and resolves to a [[Method]]; an unknown name is
  * rejected.
  */
final case class MethodConfig(
    method: String,
    hashVariant: String = "ccws",
    stage1Epochs: Int = 2,
    stage2Epochs: Int = 6,
    T: Int = 4,
    gamma: Double = 0.9,
    lambda: Double = 0.8,
    maxOrder: Int = 5,
    folds: Int = 3,
    rfTrees: Int = 12,
    rfDepth: Int = 7,
    evalSampleCap: Int = 600,
    maxSubgroup: Int = 8,
    extraSelectedCap: Int = 16,
    selectionRounds: Int = 10, // AutoFS_R subset-search rounds
    seed: Long = 1L,
) extends Serializable {
  val kind: Method = Method.byName(method)

  /** The paper trains each stage for the full epoch budget ("The training
    * epoch of the two-stage policy training strategy is 200, respectively"):
    * E-AFE runs stage1 FPE-only epochs and then a full stage-2 budget, while
    * the single-stage methods (NFS, FS_R, E-AFE_R, E-AFE_D) run the same
    * stage-2 budget entirely against the downstream task.
    */
  def totalEpochs: Int =
    if (kind.twoStage) stage1Epochs + stage2Epochs else stage2Epochs
}

/** What one Table III method changes on the shared RL substrate. */
sealed abstract class Method(
    val name: String,
    val usesFpe: Boolean = false,      // FPE filter in front of downstream evaluation
    val randomDrop: Boolean = false,   // a random 50% dropout in place of the FPE filter
    val twoStage: Boolean = false,     // FPE-only stage-1 epochs, then replay seeding
    val returns: Method.ReturnRule = Method.Discounted,
    val policy: Boolean = true,        // policy-sampled operators; else uniform, no update
    val dedup: Boolean = true,         // drop proposals already seen this epoch
    val gated: Boolean = true,         // accept only candidates that raise the score
    val subsetSearch: Boolean = false, // RL subset selection over the final pool
) extends Serializable

object Method {

  /** Per-step rewards → the returns of the policy update (Equ. 9–12). */
  sealed abstract class ReturnRule extends Serializable {
    def apply(rewards: Seq[Double], gamma: Double, lambda: Double): Array[Double]
  }
  case object Discounted extends ReturnRule {
    def apply(r: Seq[Double], gamma: Double, lambda: Double) = Returns.discounted(r, gamma)
  }
  case object Lambda extends ReturnRule {
    def apply(r: Seq[Double], gamma: Double, lambda: Double) =
      Returns.lambdaReturns(r, gamma, lambda)
  }
  case object PerStep extends ReturnRule {
    def apply(r: Seq[Double], gamma: Double, lambda: Double) = r.toArray
  }

  /** NFS: policy gradient, every generated feature evaluated on the
    * downstream task (no FPE).
    */
  case object Nfs extends Method("nfs")

  /** AutoFS_R: random generation + RL feature-subset selection. Random
    * generation re-creates and re-evaluates duplicates (Table IV's highest
    * count) and keeps everything it evaluates — the polluted pool is what
    * the selection phase must fix.
    */
  case object Fsr extends Method("fsr", policy = false, dedup = false, gated = false,
    subsetSearch = true)

  /** Full E-AFE: FPE filter + two-stage training + replay buffer + λ-returns
    * (hash variant per `hashVariant`).
    */
  case object Eafe extends Method("eafe", usesFpe = true, twoStage = true, returns = Lambda)

  /** E-AFE_D: the FPE filter replaced by a random 50% dropout. */
  case object EafeD extends Method("eafe_d", randomDrop = true, returns = Lambda)

  /** E-AFE_R: FPE filter kept but flat policy-gradient training (no stage 1,
    * no replay, plain per-step rewards).
    */
  case object EafeR extends Method("eafe_r", usesFpe = true, returns = PerStep)

  val all: Seq[Method] = Seq(Nfs, Fsr, Eafe, EafeD, EafeR)

  def byName(name: String): Method = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown method: $name (expected one of ${all.map(_.name).mkString(", ")})"))
}

/** Per-run effort/time accounting (Tables I, IV, VI). */
final case class RunCounters(
    var generated: Long = 0L,     // new candidate features created
    var preEvaluated: Long = 0L,  // FPE inferences
    var evaluated: Long = 0L,     // downstream (RF CV) evaluations
    var genNanos: Long = 0L,
    var preNanos: Long = 0L,
    var evalNanos: Long = 0L,
) extends Serializable

/** Outcome of one (dataset, method) run. */
final case class RunResult(
    dataset: String,
    method: String,
    hashVariant: String,
    baseScore: Double,
    score: Double,
    generated: Long,
    evaluated: Long,
    genMs: Double,
    evalMs: Double,
    totalMs: Double,
    selectedKeys: Seq[String],
    curve: Seq[Double],
) extends Serializable

/** The RL-based AFE engine (Algorithm 2 and the NFS / AutoFS_R baselines on
  * the same substrate). One [[RnnPolicy]] agent per original feature; per
  * generation round every agent proposes one `OPERATOR(f1, f2)` candidate and
  * the round's surviving candidates are evaluated on the downstream task —
  * in parallel as Spark tasks when a session is supplied.
  */
final class Engine(
    val data: TabularData,
    val cfg: MethodConfig,
    val fpe: Option[FpeModel.Trained],
    val spark: Option[SparkSession],
) {
  private val kind = cfg.kind
  require(!kind.usesFpe || fpe.isDefined, s"${cfg.method} requires a trained FPE model")

  private val evalData = data.subsample(cfg.evalSampleCap, cfg.seed)
  private val rawCols  = evalData.columns
  private val memo     = mutable.Map.empty[String, Array[Double]]
  private val scoreCache = mutable.Map.empty[String, Double]
  private val counters = RunCounters()
  private val rng      = new Random(cfg.seed * 7919L + data.name.hashCode)

  private def materialize(e: FeatExpr): Array[Double] = e.evalLocal(rawCols, memo)

  private def setKey(exprs: Seq[FeatExpr]): String = exprs.map(_.key).sorted.mkString(";")

  /** Downstream CV score of a feature set; cached by canonical set key. */
  private def score(exprs: Seq[FeatExpr]): Double =
    scoreCache.getOrElseUpdate(setKey(exprs), {
      counters.evaluated += 1
      val t0 = System.nanoTime()
      val s  = Engine.cvScore(exprs.map(materialize), evalData.y, evalData.classification, cfg)
      counters.evalNanos += System.nanoTime() - t0
      s
    })

  /** Evaluate `selected ++ candidate` for every candidate — as Spark tasks
    * when a session is available (at most one per core). Sequential and
    * parallel paths produce identical scores (seeded learner). No memoization
    * here: the systems the paper profiles refit the downstream CV for every
    * submitted feature, and Table I/IV/VI account evaluations that way.
    */
  private def evalBatch(selected: Seq[FeatExpr], candidates: Seq[FeatExpr]): Map[String, Double] = {
    val fresh = candidates.distinctBy(_.key)
    if (fresh.isEmpty) return Map.empty

    val t0 = System.nanoTime()
    // Plain locals: the Spark closure must capture data, not this engine.
    val (selCols, y, classif, c) =
      (selected.map(materialize), evalData.y, evalData.classification, cfg)
    val payload = fresh.map(e => (e.key, materialize(e)))
    val scores = FanOut(spark, payload, _.defaultParallelism) { case (key, col) =>
      key -> Engine.cvScore(selCols :+ col, y, classif, c)
    }
    counters.evaluated += fresh.size
    counters.evalNanos += System.nanoTime() - t0
    scores.toMap
  }

  /** P(effective) proxies for E-AFE_D's random dropout. */
  private def randomKeep(): Boolean = rng.nextDouble() < 0.5

  def run(): RunResult = {
    val tStart = System.nanoTime()
    val n      = data.nFeatures
    val raws   = (0 until n).map(Raw(_))

    val agents = Array.tabulate(n)(i =>
      new RnnPolicy(Ops.all.length, seed = cfg.seed * 1000L + i))
    val subgroups = Array.tabulate(n)(i => mutable.ArrayBuffer[FeatExpr](raws(i)))
    // Within-epoch dedup only: across epochs a re-proposed feature is
    // re-submitted to evaluation, exactly as NFS does (Table IV counts it).
    val seen      = mutable.Set[String](raws.map(_.key): _*)
    val selected  = mutable.ArrayBuffer[FeatExpr](raws: _*)
    // Replay buffer of stage-1 positives: (agent, program, P(effective)).
    val replay    = mutable.ArrayBuffer.empty[(Int, FeatExpr, Double)]

    val baseScore = score(selected.toSeq)
    var curScore  = baseScore
    var bestScore = baseScore
    var bestSelected = selected.toVector
    val curve     = mutable.ArrayBuffer.empty[Double]
    val maxSelected = n + cfg.extraSelectedCap

    // Stage-1 pseudo-score chain per agent (Equ. 8–9).
    val aPrevH = Array.fill(n)(baseScore)

    // P(effective) of this run's FPE-scored candidates (Trained.threshold).
    val fpeProbs = mutable.ArrayBuffer.empty[Double]

    var replaySeeded = false

    for (epoch <- 0 until cfg.totalEpochs) {
      val stage1 = kind.twoStage && epoch < cfg.stage1Epochs

      // At the formal-training boundary, evaluate the replay buffer's
      // promising features on the real downstream task (Algorithm 2 line 16).
      if (kind.twoStage && !stage1 && !replaySeeded) {
        replaySeeded = true
        // Only the most promising replay entries get a downstream evaluation —
        // seeding must not undo the stage-1 evaluation savings.
        val budget = math.max(1, n * cfg.T / 4)
        val pending = replay
          .sortBy(-_._3)
          .map(_._2)
          .filterNot(e => selected.exists(_.key == e.key))
          .distinctBy(_.key)
          .take(budget)
          .toSeq
        if (pending.nonEmpty) {
          val scores = evalBatch(selected.toSeq, pending)
          pending.foreach { e =>
            val s = scores(e.key)
            if (s > curScore && selected.size < maxSelected) {
              selected += e
              curScore = s
              if (s > bestScore) { bestScore = s; bestSelected = selected.toVector }
            }
          }
        }
      }

      val hidden     = Array.tabulate(n)(i => agents(i).freshHidden)
      val lastReward = Array.fill(n)(0.0)
      val steps      = Array.fill(n)(mutable.ArrayBuffer.empty[PolicyStep])
      val rewards    = Array.fill(n)(mutable.ArrayBuffer.empty[Double])
      seen.clear()
      seen ++= raws.map(_.key)
      seen ++= selected.map(_.key)

      for (t <- 0 until cfg.T) {
        // --- Generation: every agent proposes one candidate. -------------
        val tGen = System.nanoTime()
        val proposals = (0 until n).map { i =>
          val x = Array(
            math.min(subgroups(i).size, 10) / 10.0,
            if (stage1) aPrevH(i) else curScore,
            lastReward(i) * 10.0,
            (t + 1).toDouble / cfg.T,
          )
          val (hNew, probs) = agents(i).forward(x, hidden(i))
          val actionIdx =
            if (kind.policy) agents(i).sample(probs, rng) else rng.nextInt(Ops.all.length)
          if (kind.policy) steps(i) += PolicyStep(x, hidden(i), actionIdx)
          hidden(i) = hNew
          val op = Ops.all(actionIdx)
          val fa = subgroups(i)(rng.nextInt(subgroups(i).size))
          val fb = subgroups(i)(rng.nextInt(subgroups(i).size))
          (i, FeatExpr.derive(op, fa, fb))
        }
        // Dedup + order cap.
        val valid = proposals.filter { case (_, e) =>
          e.order <= cfg.maxOrder && (!kind.dedup || !seen.contains(e.key))
        }
        valid.foreach { case (_, e) => seen += e.key }
        counters.generated += valid.size
        counters.genNanos += System.nanoTime() - tGen

        val stepReward = Array.fill(n)(0.0)

        // --- Pre-evaluation (FPE / random dropout). -----------------------
        val survivors =
          if (kind.usesFpe) {
            val tPre   = System.nanoTime()
            val scored = valid.map { case (i, e) =>
              counters.preEvaluated += 1
              (i, e, fpe.get.p(materialize(e)))
            }
            val thr = fpe.get.threshold(fpeProbs) // from features seen BEFORE this batch
            scored.foreach { case (_, _, pBad) => fpeProbs += 1.0 - pBad }
            val kept = scored.filter { case (i, e, pBad) =>
              val positive = (1.0 - pBad) >= thr
              if (stage1) {
                // Equ. 8–9: pseudo-score reward chain, no downstream task.
                val aH = fpe.get.scoreFromP(pBad, baseScore)
                stepReward(i) = aH - aPrevH(i)
                aPrevH(i) = aH
                if (positive) {
                  replay += ((i, e, 1.0 - pBad))
                  if (subgroups(i).size < cfg.maxSubgroup) subgroups(i) += e
                }
              }
              positive
            }.map { case (i, e, _) => (i, e) }
            counters.preNanos += System.nanoTime() - tPre
            if (stage1) Seq.empty else kept
          } else if (kind.randomDrop) {
            valid.filter(_ => randomKeep())
          } else valid

        // --- Downstream evaluation of the round's survivors. --------------
        if (survivors.nonEmpty) {
          val batchBase = selected.toSeq
          val scores    = evalBatch(batchBase, survivors.map(_._2))
          val anchor    = curScore
          survivors.foreach { case (i, e) =>
            val s    = scores(e.key)
            val gain = s - anchor
            stepReward(i) = gain
            val accept = (!kind.gated || gain > 0) && selected.size < maxSelected &&
              !selected.exists(_.key == e.key)
            if (accept) {
              selected += e
              if (subgroups(i).size < cfg.maxSubgroup) subgroups(i) += e
              if (kind.gated && s > curScore) curScore = s
            }
            if ((accept || !kind.gated) && s > bestScore) { bestScore = s; bestSelected = selected.toVector }
          }
        }

        (0 until n).foreach { i =>
          lastReward(i) = stepReward(i)
          rewards(i) += stepReward(i)
        }
      }

      // --- Policy update (Equ. 10–12). ------------------------------------
      if (kind.policy) {
        (0 until n).foreach { i =>
          agents(i).update(steps(i).toSeq,
            kind.returns(rewards(i).toSeq, cfg.gamma, cfg.lambda).toSeq)
        }
      }
      curve += bestScore
    }

    // --- AutoFS_R subset-selection phase (RL feature selection). ----------
    if (kind.subsetSearch && selected.size > n) {
      val pool = selected.toVector
      Engine.subsetSearch(pool.size, n, cfg.selectionRounds, rng, bestScore)(idx => score(idx.map(pool)))
        .foreach { case (s, idx) => bestScore = s; bestSelected = idx.map(pool).toVector }
    }

    val totalMs = (System.nanoTime() - tStart) / 1e6
    RunResult(
      dataset = data.name,
      method = cfg.method,
      hashVariant = if (kind.usesFpe) cfg.hashVariant else "",
      baseScore = baseScore,
      score = bestScore,
      generated = counters.generated,
      evaluated = counters.evaluated,
      genMs = counters.genNanos / 1e6,
      evalMs = counters.evalNanos / 1e6,
      totalMs = totalMs,
      selectedKeys = bestSelected.map(_.key),
      curve = curve.toSeq,
    )
  }
}

object Engine {

  /** Feature columns → the row-major sample matrix of their `n` rows. */
  def rows(cols: Seq[Array[Double]], n: Int): Array[Array[Double]] =
    Array.tabulate(n)(i => cols.map(_(i)).toArray)

  /** The downstream evaluator: seeded k-fold CV of the configured Random
    * Forest on the feature columns `cols`.
    */
  def cvScore(cols: Seq[Array[Double]], y: Array[Double], classification: Boolean,
              cfg: MethodConfig): Double =
    CrossVal.score(rows(cols, y.length), y,
      new RandomForest(classification, cfg.rfTrees, cfg.rfDepth, seed = cfg.seed),
      cfg.folds, cfg.seed)

  /** REINFORCE subset search over items `0 until size` (AutoFS_R's selection
    * phase; DL|FE's selection over deep features). Items below `fixed` are
    * always kept; each other item is kept with its own probability, nudged
    * toward the subsets that beat a running mean score. Returns the best
    * (score, subset) of the `rounds` rounds if one beats `baseline`.
    */
  def subsetSearch(size: Int, fixed: Int, rounds: Int, rng: Random, baseline: Double)(
      score: IndexedSeq[Int] => Double): Option[(Double, IndexedSeq[Int])] = {
    val probs = Array.fill(size)(0.7)
    var meanS = baseline
    var best  = Option.empty[(Double, IndexedSeq[Int])]
    for (_ <- 0 until rounds) {
      val include = Array.tabulate(size)(j => j < fixed || rng.nextDouble() < probs(j))
      val subset  = (0 until size).filter(include)
      val s       = score(subset)
      val adv     = s - meanS
      (fixed until size).foreach { j =>
        probs(j) = math.min(0.95, math.max(0.05, probs(j) + 0.3 * adv * (if (include(j)) 1 else -1)))
      }
      meanS = 0.8 * meanS + 0.2 * s
      if (s > best.fold(baseline)(_._1)) best = Some((s, subset))
    }
    best
  }
}
