package repro.hmj

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.eval.BruteForce
import repro.names.{Account, NameGen}

/** HMJ is an exact metric-space join: it must reproduce the brute-force
  * result under every partitioning configuration.
  */
class HmjSpec extends SparkSpec {

  private def df(accounts: Seq[Account]): DataFrame = {
    import spark.implicits._
    spark.createDataset(accounts).toDF()
  }

  private def run(accounts: Seq[Account], cfg: Hmj.HmjConfig): Set[(Long, Long, Double)] =
    Hmj.selfJoin(spark, df(accounts), cfg).collect()
      .map(r => (r.getLong(0), r.getLong(1), math.rint(r.getDouble(2) * 1e9) / 1e9)).toSet

  private def truth(accounts: Seq[Account], t: Double): Set[(Long, Long, Double)] =
    BruteForce.nsldSelfJoin(accounts, t)
      .map { case (a, b, d) => (a, b, math.rint(d * 1e9) / 1e9) }

  for ((t, k, seed) <- Seq((0.1, 8, 90L), (0.2, 16, 91L), (0.3, 4, 92L))) {
    test(s"HMJ equals brute force (t=$t, centroids=$k, seed=$seed)") {
      val accounts = NameGen.corpus(300, seed, ringFraction = 0.5)
      assert(run(accounts, Hmj.HmjConfig(t = t, numCentroids = k)) == truth(accounts, t))
    }
  }

  test("HMJ with a single centroid degenerates to all-pairs and stays exact") {
    val accounts = NameGen.corpus(150, 93L)
    assert(run(accounts, Hmj.HmjConfig(t = 0.2, numCentroids = 1)) == truth(accounts, 0.2))
  }

  test("HMJ with more centroids than records stays exact") {
    val accounts = NameGen.corpus(40, 94L)
    assert(run(accounts, Hmj.HmjConfig(t = 0.25, numCentroids = 64)) == truth(accounts, 0.25))
  }

  test("HMJ stays exact when sub-partitioning is forced") {
    val accounts = NameGen.corpus(300, 95L, ringFraction = 0.7, meanRingSize = 10)
    val cfg = Hmj.HmjConfig(t = 0.2, numCentroids = 4, maxPartitionSize = 20, subCentroids = 4)
    assert(run(accounts, cfg) == truth(accounts, 0.2))
  }

  test("HMJ finds dense clusters (rings) completely") {
    val accounts = NameGen.corpus(200, 96L, ringFraction = 0.9, meanRingSize = 12)
    val cfg = Hmj.HmjConfig(t = 0.25, numCentroids = 8, maxPartitionSize = 50)
    assert(run(accounts, cfg) == truth(accounts, 0.25))
  }

  test("HMJ output pairs are ordered and deduplicated") {
    val accounts = NameGen.corpus(250, 97L, ringFraction = 0.6)
    val rows = Hmj.selfJoin(spark, df(accounts), Hmj.HmjConfig(t = 0.2))
      .select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(rows.forall { case (a, b) => a < b })
    assert(rows.length == rows.distinct.length)
  }

  test("HMJ rejects non-positive centroid counts") {
    intercept[IllegalArgumentException](Hmj.HmjConfig(t = 0.1, numCentroids = 0))
    intercept[IllegalArgumentException](Hmj.HmjConfig(t = 0.1, subCentroids = 0))
  }

  test("HMJ rejects invalid thresholds") {
    intercept[IllegalArgumentException](Hmj.HmjConfig(t = 0.0))
    intercept[IllegalArgumentException](Hmj.HmjConfig(t = 1.0))
  }
}
