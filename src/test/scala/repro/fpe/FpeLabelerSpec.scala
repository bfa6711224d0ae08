package repro.fpe

import repro.SparkSpec
import repro.data.TabularData
import scala.util.Random

class FpeLabelerSpec extends SparkSpec {

  /** Dataset where f0 carries the label entirely and f1/f2 are pure noise. */
  private def oneGoodFeature(seed: Long): TabularData = {
    val rng = new Random(seed)
    val x = Array.fill(240)(Array(rng.nextGaussian(), rng.nextGaussian() * 3,
      rng.nextDouble() * 10))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    TabularData("one-good", x, y, classification = true)
  }

  test("leave-one-out labels the informative feature 1 and noise 0") {
    val d      = oneGoodFeature(1)
    val labels = FpeLabeler.labelDataset(d, FpeLabeler.Config())
    assert(labels.length === 3)
    assert(labels(0).label === 1, s"informative feature gain=${labels(0).gain}")
    assert(labels(1).label === 0, s"noise feature gain=${labels(1).gain}")
    assert(labels(2).label === 0, s"noise feature gain=${labels(2).gain}")
  }

  test("gain of the informative feature is large and positive") {
    val d      = oneGoodFeature(2)
    val labels = FpeLabeler.labelDataset(d, FpeLabeler.Config())
    assert(labels(0).gain > 0.2)
    assert(math.abs(labels(1).gain) < 0.15)
  }

  test("labeled values are the raw feature columns") {
    val d      = oneGoodFeature(3)
    val labels = FpeLabeler.labelDataset(d, FpeLabeler.Config())
    assert(labels(2).values.sameElements(d.column(2)))
  }

  test("Spark fan-out produces identical labels to the local path") {
    // Input order is not lexicographic: both paths must keep it.
    val ds  = Seq(oneGoodFeature(4).copy(name = "b"), oneGoodFeature(5).copy(name = "a"))
    val loc = FpeLabeler.labelAll(ds, FpeLabeler.Config())
    val dist = FpeLabeler.labelAll(ds, FpeLabeler.Config(), Some(spark))
    assert(loc.map(l => (l.dataset, l.featureIdx, l.label)) ===
      dist.map(l => (l.dataset, l.featureIdx, l.label)))
    loc.zip(dist).foreach { case (a, b) => assert(math.abs(a.gain - b.gain) < 1e-12) }
  }

  test("generated-feature labels: add-one-in gains with realistic shapes") {
    val d      = oneGoodFeature(7)
    val labels = FpeLabeler.labelGenerated(d, FpeLabeler.Config(), nGen = 6)
    assert(labels.length === 6)
    labels.foreach { l =>
      assert(l.values.length === d.nSamples)
      assert(l.featureIdx >= d.nFeatures) // generated indices follow the raw ones
      assert(l.label === (if (l.gain > 0.01) 1 else 0))
    }
  }

  test("labelAllWithGenerated concatenates both label families (Spark == local)") {
    val ds  = Seq(oneGoodFeature(8).copy(name = "b"), oneGoodFeature(9).copy(name = "a"))
    val loc = FpeLabeler.labelAllWithGenerated(ds, FpeLabeler.Config(), genPerDataset = 4)
    assert(loc.length === 2 * (3 + 4))
    val dist = FpeLabeler.labelAllWithGenerated(ds, FpeLabeler.Config(), genPerDataset = 4,
      spark = Some(spark))
    assert(loc.map(l => (l.dataset, l.featureIdx, l.label)) ===
      dist.map(l => (l.dataset, l.featureIdx, l.label)))
    assert(loc.map(_.gain) === dist.map(_.gain))
  }

  test("regression datasets label via 1-rae gains") {
    val rng = new Random(6)
    val x   = Array.fill(240)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y   = x.map(r => 5 * r(0) + rng.nextGaussian() * 0.05)
    val d   = TabularData("reg", x, y, classification = false)
    val labels = FpeLabeler.labelDataset(d, FpeLabeler.Config())
    assert(labels(0).label === 1)
    assert(labels(1).label === 0)
  }
}
