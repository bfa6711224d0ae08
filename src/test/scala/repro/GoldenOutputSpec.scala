package repro

import repro.core.{Engine, MethodConfig}
import repro.data.{DatasetRegistry, SyntheticTabular, TabularData}
import repro.eval.Harness
import repro.fpe.{FpeLabeler, FpeModel}
import repro.hash.HashVariant

/** Pins exact outputs of the AFE run path on tiny inputs. Runs are
  * deterministic in their seed, so a refactor of the run path must leave
  * every value here unchanged: scores compare as exact doubles, counters and
  * selected keys as exact values.
  */
class GoldenOutputSpec extends SparkSpec {

  private lazy val cls = SyntheticTabular.generate(
    SyntheticTabular.Spec("engine-ds", 200, 5, classification = true, seed = 21))
  private lazy val reg = SyntheticTabular.generate(
    SyntheticTabular.Spec("engine-reg", 180, 4, classification = false, seed = 22))

  private lazy val labeled = FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(4),
    FpeLabeler.Config(folds = 3, rfTrees = 5, rfDepth = 5), genPerDataset = 4)

  private lazy val fpe: FpeModel.Trained =
    FpeModel.trainBest(labeled, variants = Seq(HashVariant.CCWS), dims = Seq(16), seed = 1)

  private def tinyCfg(method: String) = MethodConfig(
    method, stage1Epochs = 1, stage2Epochs = 2, T = 2,
    rfTrees = 4, rfDepth = 4, evalSampleCap = 150, seed = 5)

  private final case class Golden(
      baseScore: Double, score: Double, evaluated: Long, generated: Long, keys: Seq[String])

  private val golden: Seq[((String, String), Golden)] = Seq(
    ("cls", "nfs") -> Golden(0.7906305580724186, 0.7957314553059235, 21L, 20L,
      Seq("f0", "f1", "f2", "f3", "f4", "mmn(f4)")),
    ("cls", "fsr") -> Golden(0.7906305580724186, 0.7990125816212773, 31L, 20L,
      Seq("f0", "f1", "f2", "f3", "f4", "sqrt(f0)", "mul(f1,f1)", "mul(f2,f2)", "mmn(f3)",
        "sqrt(f4)", "log(f0)", "sqrt(mul(f1,f1))", "sqrt(f3)", "mul(f4,sqrt(f4))",
        "mmn(mul(f1,f1))", "recip(f2)", "add(f0,log(f0))",
        "sub(sqrt(mul(f1,f1)),mmn(mul(f1,f1)))")),
    ("cls", "eafe") -> Golden(0.7906305580724186, 0.7906305580724186, 14L, 30L,
      Seq("f0", "f1", "f2", "f3", "f4")),
    ("cls", "eafe_r") -> Golden(0.7906305580724186, 0.7906305580724186, 8L, 20L,
      Seq("f0", "f1", "f2", "f3", "f4")),
    ("cls", "eafe_d") -> Golden(0.7906305580724186, 0.7906305580724186, 7L, 19L,
      Seq("f0", "f1", "f2", "f3", "f4")),
    ("reg", "nfs") -> Golden(0.0, 0.05705868585216737, 17L, 16L,
      Seq("f0", "f1", "f2", "f3", "sqrt(f0)", "mul(f1,f1)", "div(f2,f2)", "mod(f3,f3)",
        "mul(mul(f1,f1),mul(f1,f1))", "mul(f3,f3)")),
    ("reg", "fsr") -> Golden(0.0, 0.10398763872688103, 27L, 16L,
      Seq("f0", "f1", "f2", "f3", "div(f0,f0)", "add(f1,f1)", "sqrt(f1)", "log(mmn(f3))",
        "mod(f1,sqrt(f1))", "mul(f2,recip(f2))", "sqrt(log(mmn(f3)))", "sub(sqrt(f0),f0)",
        "mod(recip(f2),f2)")),
    ("reg", "eafe") -> Golden(0.0, 0.044567894159315356, 13L, 23L,
      Seq("f0", "f1", "f2", "f3", "div(f2,f2)")),
    ("reg", "eafe_r") -> Golden(0.0, 0.060096325088315784, 9L, 14L,
      Seq("f0", "f1", "f2", "f3", "sqrt(f0)", "div(f2,f2)", "mod(f3,f3)", "log(f0)")),
    ("reg", "eafe_d") -> Golden(0.0, 0.043935419946476574, 7L, 14L,
      Seq("f0", "f1", "f2", "f3", "sqrt(f0)", "mul(f1,f1)", "mul(f3,f3)")),
  )

  private def check(data: TabularData, method: String, g: Golden, parallel: Boolean): Unit = {
    val model = if (method == "eafe" || method == "eafe_r") Some(fpe) else None
    val r     = new Engine(data, tinyCfg(method), model, if (parallel) Some(spark) else None).run()
    assert(r.baseScore === g.baseScore)
    assert(r.score === g.score)
    assert(r.evaluated === g.evaluated)
    assert(r.generated === g.generated)
    assert(r.selectedKeys === g.keys)
  }

  test("local labelAllWithGenerated gives the pinned labels and gain sum") {
    val fp = labeled.map(l => s"${l.dataset}/${l.featureIdx}=${l.label}").mkString(" ")
    assert(fp ===
      "public-0/0=1 public-0/1=1 public-0/2=1 public-0/3=1 public-0/4=1 public-0/5=1 " +
      "public-1/0=0 public-1/1=0 public-1/2=0 public-1/3=0 public-1/4=0 public-1/5=1 " +
      "public-1/6=0 public-1/7=0 public-1/8=0 public-1/9=1 public-1/10=0 " +
      "public-2/0=0 public-2/1=1 public-2/2=0 public-2/3=0 public-2/4=0 public-2/5=0 " +
      "public-2/6=0 public-2/7=0 public-2/8=0 public-2/9=0 public-2/10=0 public-2/11=0 " +
      "public-2/12=0 public-2/13=0 public-2/14=0 public-2/15=0 " +
      "public-3/0=1 public-3/1=0 public-3/2=0 public-3/3=1 public-3/4=0 public-3/5=1 " +
      "public-3/6=0 public-3/7=0 public-3/8=0 public-3/9=0 " +
      "public-0/6=0 public-0/7=0 public-0/8=0 public-0/9=0 " +
      "public-1/11=1 public-1/12=1 public-1/13=1 public-1/14=1 " +
      "public-2/16=1 public-2/17=1 public-2/18=1 public-2/19=1 " +
      "public-3/10=0 public-3/11=0 public-3/12=0 public-3/13=0")
    assert(labeled.map(_.gain).sum === -0.5230778708227699)
  }

  for (((ds, method), g) <- golden) {
    test(s"$method on the $ds dataset gives the pinned score, counters and keys") {
      check(if (ds == "cls") cls else reg, method, g, parallel = false)
    }
  }

  test("Spark candidate evaluation gives the pinned NFS output") {
    check(cls, "nfs", golden.toMap.apply(("cls", "nfs")), parallel = true)
  }

  test("runDlFe gives the pinned score and evaluation count") {
    val r = Harness.runDlFe("fertility", seed = 1)
    assert(r.score === 0.6837606837606837)
    assert(r.evaluated === 9L)
  }
}
