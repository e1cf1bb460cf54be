package repro.tsjbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Executor-side totals of the jobs run under one job group. */
final class GroupMetrics {
  var jobsStarted = 0
  var jobsEnded = 0
  var stages = 0
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var fetchWaitMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleWriteRecords = 0L
  var shuffleReadBytes = 0L
  var spillBytes = 0L
  var peakTaskMemBytes = 0L
  /** Per stage: wall time and the run times of its tasks. */
  val stageWallMs = mutable.Map.empty[Int, Long]
  val taskRunMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]

  def cpuS: Double = cpuNs / 1e9
  def shuffleWriteMb: Double = shuffleWriteBytes / 1e6

  /** Longest task over the median task, in the stage with the longest wall time. */
  def taskSkew: Double =
    if (stageWallMs.isEmpty) 1.0
    else {
      val runs = taskRunMs.getOrElse(stageWallMs.maxBy(_._2)._1, mutable.ArrayBuffer(1L))
      runs.max / math.max(1.0, Stats.median(runs.map(_.toDouble).toSeq))
    }
}

/** Attributes Spark task metrics to the job group that the benchmark thread
  * set when it started each job (`SparkContext.setJobGroup`).
  *
  * Listener events arrive asynchronously. [[take]] first runs a marker job
  * in a group of its own and waits for that job's end event: the bus
  * delivers events in order, so by then every event of the earlier jobs has
  * been delivered, and no count of one join can leak into the next.
  */
final class JobGroupListener extends SparkListener {
  private val groupOfJob = mutable.Map.empty[Int, String]
  private val groupOfStage = mutable.Map.empty[Int, String]
  private val groups = mutable.Map.empty[String, GroupMetrics]
  private val markers = mutable.Map.empty[String, CountDownLatch]
  private val markerSeq = new AtomicInteger()

  private def metricsOf(group: String): GroupMetrics =
    groups.getOrElseUpdate(group, new GroupMetrics)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      groupOfJob(e.jobId) = g
      e.stageIds.foreach(groupOfStage(_) = g)
      metricsOf(g).jobsStarted += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.remove(e.jobId).foreach { g =>
      metricsOf(g).jobsEnded += 1
      markers.remove(g).foreach(_.countDown())
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    groupOfStage.get(info.stageId).foreach { g =>
      val m = metricsOf(g)
      m.stages += 1
      for (s <- info.submissionTime; c <- info.completionTime) m.stageWallMs(info.stageId) = c - s
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- groupOfStage.get(e.stageId); tm <- Option(e.taskMetrics)) {
      val m = metricsOf(g)
      m.tasks += 1
      m.runMs += tm.executorRunTime
      m.cpuNs += tm.executorCpuTime
      m.gcMs += tm.jvmGCTime
      m.fetchWaitMs += tm.shuffleReadMetrics.fetchWaitTime
      m.shuffleWriteBytes += tm.shuffleWriteMetrics.bytesWritten
      m.shuffleWriteRecords += tm.shuffleWriteMetrics.recordsWritten
      m.shuffleReadBytes += tm.shuffleReadMetrics.totalBytesRead
      m.spillBytes += tm.diskBytesSpilled
      m.peakTaskMemBytes = math.max(m.peakTaskMemBytes, tm.peakExecutionMemory)
      m.taskRunMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty[Long]) += tm.executorRunTime
    }
  }

  /** The totals of `group`, read once all of its jobs have ended. */
  def take(sc: SparkContext, group: String): GroupMetrics = {
    val marker = s"tsjbench-settle-${markerSeq.incrementAndGet()}"
    val latch = new CountDownLatch(1)
    synchronized { markers(marker) = latch }
    sc.setJobGroup(marker, "listener settle", interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
    if (!latch.await(120, TimeUnit.SECONDS))
      throw new IllegalStateException(s"listener never saw the end of marker job $marker")
    synchronized {
      groups.remove(marker)
      val m = groups.remove(group).getOrElse(new GroupMetrics)
      require(m.jobsStarted == m.jobsEnded,
        s"group $group: ${m.jobsStarted} jobs started but ${m.jobsEnded} ended")
      m
    }
  }
}
