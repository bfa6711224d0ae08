package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}
import org.apache.spark.sql.SparkSession
import repro.core.{FeatExpr, MethodConfig, RunResult}
import repro.data.{DatasetRegistry, TabularData}
import repro.eval.Harness
import repro.fpe.{FpeLabeler, FpeModel}
import repro.hash.HashVariant
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** Cost benchmark of the AFE engine.
  *
  *   --workload nfs_seq|eafe_seq|nfs_spark --seed N --seconds S --trace 0|1
  *
  * One pass runs German Credit (classification, 16 agents after RF
  * pre-selection) and Airfoil (regression, 5 agents) through
  * `Harness.runRl`, each at one (E-AFE: three) run seeds derived from N. With
  * `--trace 0` passes repeat until S seconds have been
  * measured and the end-to-end metrics are printed; with `--trace 1` one
  * untraced and one traced pass run, followed by replays of single layer
  * calls, and the per-layer metrics are printed. The last stdout line is one
  * JSON object: {"correct", "attempted", "failed", "metrics"}.
  */
object Main {

  /** A pass runs every dataset at `seeds` run seeds derived from `--seed`.
    * The work of one run depends on its seed (how many candidates survive
    * dedup or the FPE filter, how wide the accepted feature set grows).
    * E-AFE's evaluation count varies most across seeds and its runs are the
    * cheapest, so it averages three runs per dataset.
    */
  final case class Workload(name: String, method: String, spark: Boolean, seeds: Int) {
    def passConfigs(seed: Long): Seq[MethodConfig] =
      (0 until seeds).map(k => config(method, seed * seeds + k))

    /** The untimed JIT warm-up: one run per dataset with one downstream
      * epoch. Its seed is fixed, so that it does the same work whatever
      * `--seed` is, and negative, so that no timed run uses it.
      */
    val warmupConfigs: Seq[MethodConfig] = Seq(config(method, WarmupSeed).copy(stage2Epochs = 1))
  }

  val Workloads: Seq[Workload] = Seq(
    Workload("nfs_seq", "nfs", spark = false, seeds = 1),
    Workload("eafe_seq", "eafe", spark = false, seeds = 3),
    Workload("nfs_spark", "nfs", spark = true, seeds = 1),
  )

  val Datasets: Seq[String] = Seq("German Credit", "Airfoil")

  val WarmupSeed: Long = -1L

  /** FPE pre-training as the bench tables do it: 24 public datasets. The
    * pre-trained model is an artifact every target run shares, so its seed
    * is fixed (the bench tables' default); `--seed` drives the AFE runs.
    */
  val GenPerDataset     = 10
  val PretrainSeed: Long = 1L

  val nproc: Int = Runtime.getRuntime.availableProcessors()

  /** Two epochs of two generation rounds of downstream search per run (E-AFE
    * adds one FPE-only epoch before them); everything else is the default
    * `MethodConfig`. With two epochs the policy update after the first one
    * steers the second, and candidates re-proposed across epochs are
    * re-evaluated, as at the full budget.
    */
  def config(method: String, seed: Long): MethodConfig =
    MethodConfig(method, stage1Epochs = 1, stage2Epochs = 2, T = 2, seed = seed)

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    require(argv.length == 2 * kv.size, s"expected --key value pairs, got: ${argv.mkString(" ")}")
    val w = Workloads.find(_.name == kv.getOrElse("workload", ""))
      .getOrElse(sys.error(s"--workload must be one of ${Workloads.map(_.name).mkString(", ")}"))
    val seconds = kv.get("seconds").map(_.toInt).getOrElse(10)
    require(seconds >= 1, "--seconds must be at least 1")
    val trace = kv.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t   => sys.error(s"--trace must be 0 or 1, got $t")
    }
    Args(w, kv.get("seed").map(_.toLong).getOrElse(1L), seconds, trace)
  }

  // --- Measurement helpers -----------------------------------------------

  private val osBean = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuNs(): Long = osBean.getProcessCpuTime

  def jitMs(): Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP)

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  def heapPeakMb(): Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = quartiles(xs)._2

  /** (q1, median, q3) with Python's `statistics.quantiles(n=4)` (exclusive)
    * method; fewer than two samples give the sample itself.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted.toIndexedSeq
    val n = s.length
    if (n < 2) (s(0), s(0), s(0))
    else {
      def q(i: Int): Double = {
        val m     = (n + 1) * i
        val j     = math.max(1, math.min(n - 1, m / 4))
        val delta = m - j * 4
        (s(j - 1) * (4 - delta) + s(j) * delta) / 4.0
      }
      (q(1), if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2, q(3))
    }
  }

  // --- AFE runs ----------------------------------------------------------

  final case class Run(dataset: String, cfg: MethodConfig, result: Option[RunResult], failure: Option[String])

  final case class Pass(runs: Seq[Run], wallS: Double, cpuS: Double) {
    def results: Seq[RunResult] = runs.flatMap(_.result)
    def generated: Long         = results.map(_.generated).sum
    def evaluated: Long         = results.map(_.evaluated).sum
    def scoreMean: Double       = results.map(_.score).sum / math.max(1, results.size)
  }

  /** The eval sample `Engine` scores on (same subsample call and seed). */
  def evalSample(dataset: String, cfg: MethodConfig): TabularData =
    Harness.prepare(dataset).subsample(cfg.evalSampleCap, cfg.seed)

  /** Output checks of one run. The reported score is not re-derived from
    * `selectedKeys`: when a round accepts two features, `Engine` scores each
    * against the round's starting set, so the score belongs to neither set.
    */
  def check(dataset: String, cfg: MethodConfig, r: RunResult): Option[String] =
    if (r.score.isNaN || r.score.isInfinite) Some(s"non-finite score ${r.score}")
    else if (r.score < r.baseScore) Some(s"score ${r.score} below baseScore ${r.baseScore}")
    else {
      val d    = evalSample(dataset, cfg)
      val cols = d.columns
      val memo = mutable.Map.empty[String, Array[Double]]
      r.selectedKeys.iterator.map { key =>
        Try(FeatExpr.parse(key)) match {
          case Failure(e) => Some(s"selected key $key does not parse: ${e.getMessage}")
          case Success(e) if e.order > cfg.maxOrder =>
            Some(s"selected key $key has order ${e.order} > ${cfg.maxOrder}")
          case Success(e) =>
            Try(e.evalLocal(cols, memo)) match {
              case Failure(err) => Some(s"selected key $key does not materialize: $err")
              case Success(c) if c.length != d.nSamples || c.exists(v => v.isNaN || v.isInfinite) =>
                Some(s"selected key $key materializes to a non-finite column")
              case _ => None
            }
        }
      }.collectFirst { case Some(msg) => msg }
    }

  def runPass(
      cfgs: Seq[MethodConfig],
      fpe: Option[FpeModel.Trained],
      spark: Option[SparkSession],
      tracer: Tracer,
  ): Pass = {
    val c0 = cpuNs()
    val t0 = System.nanoTime()
    val raw = for (cfg <- cfgs; ds <- Datasets) yield {
      (ds, cfg, Try(tracer("core", s"runRl $ds") {
        val r = Harness.runRl(ds, cfg, fpe, spark)
        tracer.count("generated", r.generated.toDouble)
        tracer.count("evaluated", r.evaluated.toDouble)
        r
      }))
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    val cpuS  = (cpuNs() - c0) / 1e9
    Pass(raw.map { case (ds, cfg, r) => checked(ds, cfg, r) }, wallS, cpuS)
  }

  def checked(dataset: String, cfg: MethodConfig, result: Try[RunResult]): Run = result match {
    case Success(r) => Run(dataset, cfg, Some(r), check(dataset, cfg, r))
    case Failure(e) => Run(dataset, cfg, None, Some(s"threw $e"))
  }

  /** The runs of a pass without Spark, on `threads` threads: the reference
    * of the Spark runs. Each run is independent and deterministic in its seed.
    */
  def referencePass(cfgs: Seq[MethodConfig], fpe: Option[FpeModel.Trained], threads: Int): Pass = {
    val pool = Executors.newFixedThreadPool(threads)
    val runs =
      try {
        (for (cfg <- cfgs; ds <- Datasets) yield pool.submit(new Callable[Run] {
          def call(): Run = checked(ds, cfg, Try(Harness.runRl(ds, cfg, fpe, None)))
        })).map(_.get())
      } finally pool.shutdown()
    Pass(runs, 0.0, 0.0)
  }

  /** Marks runs whose score, evaluation count or selected keys differ from
    * the reference run on the same dataset and seed.
    */
  def agree(runs: Seq[Run], reference: Seq[Run], what: String): Seq[Run] = {
    val ref = reference.flatMap(r => r.result.map((r.dataset, r.cfg.seed) -> _)).toMap
    runs.map { run =>
      (run.result, ref.get((run.dataset, run.cfg.seed))) match {
        case (Some(a), Some(b)) if run.failure.isEmpty &&
            (a.score != b.score || a.evaluated != b.evaluated || a.selectedKeys != b.selectedKeys) =>
          run.copy(failure = Some(
            s"$what: score ${a.score} vs ${b.score}, evaluated ${a.evaluated} vs ${b.evaluated}, " +
              s"selectedKeys ${a.selectedKeys.mkString(";")} vs ${b.selectedKeys.mkString(";")}"))
        case _ => run
      }
    }
  }

  // --- Set-up ------------------------------------------------------------

  final case class Pretrained(model: FpeModel.Trained, labelS: Double, trainS: Double, cvCalls: Long)

  def pretrain(tracer: Tracer): Pretrained = {
    val pub = DatasetRegistry.publicPretrain()
    val (labeled, labelS) = timed(tracer("fpe", "labelAllWithGenerated") {
      val l = FpeLabeler.labelAllWithGenerated(pub, FpeLabeler.Config(seed = PretrainSeed), GenPerDataset, None)
      tracer.count("labeled", l.size.toDouble)
      l
    })
    val (model, trainS) = timed(tracer("fpe", "trainBest") {
      FpeModel.trainBest(labeled, variants = Seq(HashVariant.CCWS), seed = PretrainSeed)
    })
    // One CV for each dataset's base score, one per left-out feature (none
    // when only one feature exists), one per generated feature.
    val cvCalls = pub.map(d => 1L + (if (d.nFeatures == 1) 0 else d.nFeatures) + 1L + GenPerDataset).sum
    Pretrained(model, labelS, trainS, cvCalls)
  }

  def startSpark(tracer: Tracer): (SparkSession, Double) = timed(tracer("spark", "SparkSession") {
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  })

  final case class Setup(
      fpe: Option[Pretrained],
      spark: Option[(SparkSession, Double)],
      prepareMs: Seq[Double],
      seconds: Double,
  )

  /** Dataset preparation, FPE pre-training (E-AFE), SparkSession start
    * (Spark) and the JIT warm-up. `allLayers` sets up every layer whatever
    * the workload, so that a traced run measures each layer.
    */
  def setup(w: Workload, allLayers: Boolean, tracer: Tracer): Setup = {
    val t0        = System.nanoTime()
    val prepareMs = Datasets.map(ds => timed(tracer("data", s"prepare $ds")(Harness.prepare(ds)))._2 * 1e3)
    val fpe       = if (allLayers || w.method == "eafe") Some(pretrain(tracer)) else None
    val spark     = if (allLayers || w.spark) Some(startSpark(tracer)) else None
    tracer("core", "warm-up") {
      runPass(w.warmupConfigs, fpe.map(_.model), if (w.spark) spark.map(_._1) else None, new Tracer(false))
    }
    Setup(fpe, spark, prepareMs, (System.nanoTime() - t0) / 1e9)
  }

  // --- Entry point -------------------------------------------------------

  final case class Metric(name: String, unit: String, value: Double, samples: Seq[Double])

  def main(argv: Array[String]): Unit = {
    val args = Try(parseArgs(argv)) match {
      case Success(a) => a
      case Failure(e) =>
        System.err.println(s"perfbench: ${e.getMessage}")
        sys.exit(2)
    }
    val tracer = new Tracer(args.trace)
    val s      = setup(args.workload, allLayers = args.trace, tracer)
    val (runs, metrics) =
      try {
        if (args.trace) traced(args, s, tracer) else endToEnd(args, s)
      } finally s.spark.foreach(_._1.stop())

    val failed = runs.filter(_.failure.isDefined)
    failed.foreach(r => println(s"FAILED ${r.dataset} (${r.cfg.method}, seed ${r.cfg.seed}): ${r.failure.get}"))
    println(f"workload ${args.workload.name}  seed ${args.seed}  nproc $nproc  " +
      f"runs ${runs.size}  failed ${failed.size}")
    metrics.foreach { m =>
      val (q1, _, q3) = quartiles(m.samples)
      println(f"${m.name}%-26s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples.size}%-3d" +
        (if (m.samples.size >= 4) f" q1=$q1%.4f q3=$q3%.4f" else "") +
        (if (m.samples.size > 1) m.samples.map(v => f"$v%.4f").mkString(" samples=", ",", "") else ""))
    }
    // A metric of failed runs can be non-finite; it prints as 0 beside
    // "correct": false. Otherwise a non-finite value is a benchmark bug.
    val metricJson = metrics.map { m =>
      val finite = !m.value.isNaN && !m.value.isInfinite
      require(finite || failed.nonEmpty, s"non-finite metric ${m.name}")
      s"${Json.str(m.name)}: {\"value\": ${Json.num(if (finite) m.value else 0.0)}, " +
        s"\"unit\": ${Json.str(m.unit)}}"
    }
    println(s"""{"correct": ${failed.isEmpty}, "attempted": ${runs.size}, "failed": ${failed.size}, """ +
      s""""metrics": {${metricJson.mkString(", ")}}}""")
    System.out.flush()
    sys.exit(0)
  }

  /** Passes until `seconds` of measurement; medians over passes. */
  def endToEnd(args: Args, s: Setup): (Seq[Run], Seq[Metric]) = {
    val w      = args.workload
    val fpe    = s.fpe.map(_.model)
    val spark  = s.spark.map(_._1)
    val passes = mutable.ArrayBuffer.empty[Pass]
    val t0     = System.nanoTime()
    while (passes.isEmpty || (System.nanoTime() - t0) / 1e9 < args.seconds)
      passes += runPass(w.passConfigs(args.seed), fpe, spark, new Tracer(false))

    // Every pass repeats the first; on Spark, each run must equal the same
    // run without Spark, made after the timed passes so that no timing
    // includes it.
    val sequential = if (w.spark) Some(referencePass(w.passConfigs(args.seed), fpe, nproc)) else None
    val reference  = sequential.getOrElse(passes.head).runs
    val checked = passes.toSeq.map(p => p.copy(runs = agree(p.runs, reference,
      if (w.spark) "differs from the sequential run" else "differs from the first pass")))
    val runs = checked.flatMap(_.runs) ++ sequential.map(_.runs).getOrElse(Nil)

    val first = checked.head
    def metric(name: String, unit: String, f: Pass => Double) = {
      val xs = checked.map(f)
      Metric(name, unit, median(xs), xs)
    }
    val metrics = Seq(
      Metric("setup_s", "s", s.seconds, Seq(s.seconds)),
      metric("wall_s", "s", _.wallS),
      metric("cpu_s", "s", _.cpuS),
      metric("candidates_per_s", "1/s", p => p.generated / p.wallS),
      Metric("evals", "count", first.evaluated.toDouble, Seq(first.evaluated.toDouble)),
      Metric("score_mean", "score", first.scoreMean, Seq(first.scoreMean)),
    )
    (runs, metrics)
  }

  /** One untraced and one traced pass, then single-layer replays. On Spark
    * the same runs without Spark come first, one at a time and warm like the
    * Spark passes: the sequential baseline of `spark.parallel_efficiency`.
    * The spans wrap whole calls, so the measured tracing overhead is mostly
    * the machine's pass-to-pass noise.
    */
  def traced(args: Args, s: Setup, tracer: Tracer): (Seq[Run], Seq[Metric]) = {
    val w         = args.workload
    val pre       = s.fpe.get
    val (ss, sessionS) = s.spark.get
    val spark     = if (w.spark) Some(ss) else None
    val fpe       = if (w.method == "eafe") Some(pre.model) else None
    val cfgs      = w.passConfigs(args.seed)
    val reference = if (w.spark) Some(tracer("core", "sequential reference")(referencePass(cfgs, fpe, 1))) else None
    val untraced  = runPass(cfgs, fpe, spark, new Tracer(false))
    val (gc0, jit0) = (gcMs(), jitMs())
    resetHeapPeak()
    val pass      = runPass(cfgs, fpe, spark, tracer)
    val gcMsPass  = (gcMs() - gc0).toDouble
    val jitMsPass = (jitMs() - jit0).toDouble
    val heapMb    = heapPeakMb()
    val runs = agree(pass.runs, untraced.runs, "traced pass differs from the untraced pass") ++
      agree(untraced.runs, reference.map(_.runs).getOrElse(Nil), "differs from the sequential run") ++
      reference.map(_.runs).getOrElse(Nil)

    val results   = pass.results
    val evalS     = results.map(_.evalMs).sum / 1e3
    val evaluated = pass.evaluated.toDouble
    val generated = pass.generated.toDouble
    val accepted  = results.map(_.selectedKeys.count(k => !k.matches("f[0-9]+"))).sum
    val cfg0      = cfgs.head
    val parallelEfficiency = reference match {
      case Some(seq) => seq.results.map(_.evalMs).sum / 1e3 / (evalS * nproc)
      case None      => 1.0 // sequential: parallelism 1
    }

    // CV and forest replays at the final feature sets of the first seed's runs.
    val r         = new Replays(tracer, args.seed)
    val gcSample  = evalSample(Datasets.head, cfg0)
    val column    = gcSample.column(0)
    val replayed  = pass.runs.filter(_.cfg.seed == cfg0.seed).flatMap(run => run.result.map(run.cfg -> _))
    val cvMs      = replayed.map { case (c, res) => r.cvMs(evalSample(res.dataset, c), c, res.selectedKeys) }
    val fitMs     = replayed.map { case (c, res) => r.forestFitMs(evalSample(res.dataset, c), c, res.selectedKeys) }
    val overheadPct = (pass.wallS - untraced.wallS) / untraced.wallS * 100

    def one(name: String, unit: String, v: Double) = Metric(name, unit, v, Seq(v))
    val metrics = Seq(
      Metric("data.prepare_ms", "ms", s.prepareMs.sum / s.prepareMs.size, s.prepareMs),
      one("fpe.label_s", "s", pre.labelS),
      one("fpe.label_cv_calls", "count", pre.cvCalls.toDouble),
      one("fpe.train_s", "s", pre.trainS),
      one("fpe.infer_us", "us", r.fpeInferUs(pre.model, column)),
      one("fpe.inferences", "count", if (w.method == "eafe") generated else 0.0),
      one("fpe.evals_per_candidate", "ratio", evaluated / generated),
      one("hash.signature_us", "us", r.signatureUs(pre.model, column)),
      one("ml.eval_s", "s", evalS),
      one("ml.eval_ms", "ms", evalS * 1e3 / evaluated),
      Metric("ml.cv_ms", "ms", cvMs.sum / cvMs.size, cvMs),
      Metric("ml.forest_fit_ms", "ms", fitMs.sum / fitMs.size, fitMs),
      one("ml.tree_fits", "count", evaluated * cfg0.folds * cfg0.rfTrees),
      one("core.gen_ms", "ms", results.map(_.genMs).sum),
      one("core.other_ms", "ms", results.map(x => x.totalMs - x.genMs - x.evalMs).sum),
      one("core.generated", "count", generated),
      one("core.accept_ratio", "ratio", accepted / evaluated),
      one("core.materialize_us", "us", r.materializeUs(gcSample)),
      one("core.policy_step_us", "us", r.policyStepUs()),
      one("spark.session_s", "s", sessionS),
      one("spark.roundtrip_ms", "ms", r.sparkRoundtripMs(ss, gcSample, Harness.prepare(Datasets.head).nFeatures)),
      one("spark.cpu_util", "ratio", pass.cpuS / (pass.wallS * nproc)),
      one("spark.parallel_efficiency", "ratio", parallelEfficiency),
      one("jvm.gc_ms", "ms", gcMsPass),
      one("jvm.jit_ms", "ms", jitMsPass),
      one("jvm.heap_peak_mb", "MB", heapMb),
      one("trace.overhead_pct", "%", overheadPct),
    )
    tracer.selfTimeByLayer.toSeq.sortBy(_._1).foreach { case (layer, (n, ns)) =>
      println(f"span layer $layer%-6s spans=$n%-4d self=${ns / 1e6}%.1f ms")
    }
    val out = new File(sys.props.getOrElse("perfbench.out", "perfbench/.out"),
      s"trace-${w.name}-seed${args.seed}.jsonl")
    tracer.write(out)
    println(s"spans written to $out")
    (runs, metrics)
  }
}
