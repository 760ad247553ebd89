/**
 * @file
 * The query-scheduling stages of one serving lane.
 *
 * shard::ClusterServer, the serving engine, composes every (shard,
 * replica) lane from two pieces:
 *
 *  - QueryPipeline: the scheduling stages between "sub-query arrives
 *    at the lane" and "batch is ready to launch":
 *
 *        admit:     shed check -> FIFO queue
 *        formBatch: deadline expiry -> degradation decision
 *                   -> batch-ordering policy (serve/policy)
 *
 *    All admission/shed/degrade/expiry accounting lives here
 *    (PipelineStats); latency/completion accounting stays with the
 *    caller, who owns the simulated clock. The answer cache is not a
 *    lane stage: the cluster router keeps the only one, in front of
 *    routing.
 *
 *  - BatchExecutor: one simulated GPU instance. dispatch() submits the
 *    batch's kernel simulation to a worker pool (a pure function of
 *    batch contents, so cycle counts are bit-identical for any
 *    HSU_JOBS); resolve() blocks for the result and accumulates the
 *    memory-system counters (SimTotals) the serving reports surface
 *    (L1 hit rate, RT-unit/warp-buffer residency). A lane may run
 *    several executors over its one pipeline.
 *
 * Determinism contract: with the Fifo policy the composed pipeline
 * reproduces the original single-GPU event loop bit-identically
 * (tests/serve/test_serve_pipeline.cc pins golden reports). Histogram
 * fills (double sums, order-sensitive) go through caller-owned sinks
 * in FIFO pop order, BEFORE any policy reordering.
 *
 * Auditing: both pieces optionally record their decisions into a
 * ScheduleLog (analysis/schedule_log) through a by-value
 * ScheduleRecorder — a null-check no-op when no log is attached — for
 * replay by the schedule linter (analysis/schedule_lint, SV rules).
 */

#ifndef HSU_SERVE_PIPELINE_HH
#define HSU_SERVE_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "analysis/schedule_log.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "search/runner.hh"
#include "serve/arrivals.hh"
#include "serve/batcher.hh"
#include "serve/cache.hh"
#include "serve/policy.hh"
#include "sim/config.hh"
#include "sim/trace.hh"

namespace hsu::serve
{

/** Overload-response knobs. */
struct DegradePolicy
{
    /** Queue depth at which batches switch to degraded knobs. */
    std::size_t highWater = 96;
    /** Queue depth at which new arrivals are shed outright. */
    std::size_t shedWater = 512;
    /** Degraded GGNN knobs (beam width / k under pressure). */
    ServeKnobs degradedKnobs{16, 10};
};

/** Everything the scheduling stages need, in one bundle. */
struct PipelineConfig
{
    /** Batch-formation triggers (size / age). */
    BatchPolicy batch;
    /** Batch-ordering policy applied to each formed batch. */
    BatchPolicyKind policy = BatchPolicyKind::Fifo;
    DegradePolicy degrade;
    /** The cluster router's answer cache, probed before routing
     *  (capacity 0 = off). Lane pipelines never cache. */
    AnswerCacheConfig cache;
};

/** Scheduling-side counters (u64 sums — order-independent). */
struct PipelineStats
{
    std::uint64_t shedAdmission = 0; //!< dropped at arrival (queue full)
    std::uint64_t shedExpired = 0;   //!< dropped at batch formation
    std::uint64_t degraded = 0;      //!< served with degraded knobs
    std::uint64_t batches = 0;       //!< kernel launches formed
};

/** One batch leaving the pipeline. */
struct FormedBatch
{
    /** Launch members, already in policy order. */
    std::vector<Request> requests;
    /** Deadline-expired requests dropped during formation (callers
     *  with per-request join state resolve these as shed). */
    std::vector<Request> expired;
    /** Formed under pressure: run with degraded knobs. */
    bool degraded = false;
    /** Pipeline-unique batch sequence number (1-based; joins the
     *  seal-time and dispatch-time schedule events). */
    std::uint64_t seq = 0;
};

/**
 * The scheduling stages of one serving lane. Pure bookkeeping on the
 * caller's simulated clock; never launches anything itself.
 */
class QueryPipeline
{
  public:
    QueryPipeline(const PipelineConfig &cfg, DatasetId dataset,
                  std::size_t pool_size, ScheduleRecorder recorder = {});

    /**
     * Admit one request: the shedWater check, then the FIFO queue.
     * @return false when the request was shed.
     * @pre arrivals are nondecreasing.
     */
    bool admit(const Request &req);

    /** True when formBatch(now) would return work. */
    bool batchReady(Cycle now) const;

    /** Earliest future age-trigger cycle; kNeverCycle if queue empty. */
    Cycle nextForceCycle() const;

    /** Queued request count (the shed/degrade watermark signal). */
    std::size_t pending() const;

    /**
     * Form the next batch: FIFO pop with deadline expiry, degradation
     * decision (queue depth BEFORE the pop, matching the pre-refactor
     * servers), then policy ordering. @p queue_wait and @p batch_size
     * are caller-owned histogram sinks, filled in FIFO pop order so
     * their double-sums are policy-independent. An all-expired pop
     * returns an empty batch and touches neither histogram.
     */
    FormedBatch formBatch(Cycle now, Histogram &queue_wait,
                          Histogram &batch_size);

    const PipelineStats &stats() const { return stats_; }

  private:
    PipelineConfig cfg_;
    DatasetId dataset_;
    std::size_t poolSize_;
    ScheduleRecorder rec_;
    DynamicBatcher batcher_;
    PipelineStats stats_;
};

/** One batch kernel simulation's results (pure per batch). */
struct BatchSim
{
    std::uint64_t cycles = 0;
    double l1Accesses = 0;
    double l1Misses = 0;
    /** RT-unit busy cycles ("rtu.busy_cycles"; 0 on the baseline). */
    double rtuBusyCycles = 0;
};

/** Run-wide sums of the per-batch simulation results. Accumulated at
 *  resolve time in deterministic lane order, so the double sums are
 *  bit-identical across HSU_JOBS. */
struct SimTotals
{
    std::uint64_t kernelCycles = 0; //!< summed batch kernel cycles
    std::uint64_t smCycles = 0;     //!< kernel cycles x numSms
    double l1Accesses = 0;
    double l1Misses = 0;
    double rtuBusyCycles = 0;
};

/** Emit the kernel trace of one batch — the only per-lane piece of
 *  the execution path (cluster lanes bind emitShardBatchTrace with
 *  their ShardKey). Must be a pure, thread-safe function of its
 *  arguments. */
using BatchTraceEmitter =
    std::function<std::shared_ptr<const KernelTrace>(
        const std::vector<std::uint32_t> &query_ids,
        const ServeKnobs &knobs)>;

/**
 * One simulated GPU instance executing formed batches. The kernel
 * simulation runs on a worker pool; dispatch() never blocks, resolve()
 * does — callers dispatch every idle instance first so concurrently
 * busy instances really simulate concurrently.
 */
class BatchExecutor
{
  public:
    BatchExecutor(const GpuConfig &gpu, Cycle launch_overhead_cycles,
                  const ServeKnobs &degraded_knobs,
                  BatchTraceEmitter emitter,
                  ScheduleRecorder recorder = {});

    /** Launch @p formed at @p now. @pre !busy(). */
    void dispatch(ThreadPool &pool, Cycle now, FormedBatch &&formed);

    /** Block for an unresolved in-flight simulation, fix readyCycle(),
     *  and add its BatchSim into @p totals. No-op when idle/resolved. */
    void resolve(SimTotals &totals);

    bool busy() const { return busy_; }
    /** Completion cycle (dispatch + launch overhead + kernel).
     *  @pre busy() and resolved by resolve(). */
    Cycle readyCycle() const { return readyCycle_; }
    /** The in-flight batch, in launch order. @pre busy(). */
    const std::vector<Request> &batch() const { return batch_; }
    bool degraded() const { return degraded_; }

    /** Retire the completed batch and go idle. */
    void finish();

  private:
    GpuConfig gpu_;
    Cycle launchOverheadCycles_;
    ServeKnobs degradedKnobs_;
    BatchTraceEmitter emitter_;
    ScheduleRecorder rec_;

    bool busy_ = false;
    bool resolved_ = false; //!< completion cycle known
    Cycle dispatchCycle_ = 0;
    Cycle readyCycle_ = 0;
    std::uint64_t seq_ = 0; //!< in-flight batch's pipeline seq
    std::future<BatchSim> pendingSim_;
    std::vector<Request> batch_;
    bool degraded_ = false;
};

} // namespace hsu::serve

#endif // HSU_SERVE_PIPELINE_HH
