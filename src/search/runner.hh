/**
 * @file
 * Experiment glue: dataset -> index -> kernel -> baseline + HSU
 * simulations. Every bench binary drives its figure through these
 * helpers; indexes are memoized per dataset so sweeps don't rebuild.
 */

#ifndef HSU_SEARCH_RUNNER_HH
#define HSU_SEARCH_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "search/ggnn.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "sim/trace_stats.hh"
#include "workloads/datasets.hh"

namespace hsu
{

/** The four evaluated search algorithms (Section V-A). */
enum class Algo : std::uint8_t
{
    Ggnn,  //!< hierarchical graph ANN
    Flann, //!< k-d tree ANN (3-D)
    Bvhnn, //!< LBVH radius nearest neighbor (3-D)
    Btree, //!< B+tree key-value lookups
};

std::string toString(Algo algo);

/** Query-count knobs (scaled for simulator runtimes). */
struct RunnerOptions
{
    unsigned ggnnQueries = 128;
    unsigned pointQueries = 4096;
    unsigned keyQueries = 8192;

    bool
    operator==(const RunnerOptions &o) const
    {
        return ggnnQueries == o.ggnnQueries &&
               pointQueries == o.pointQueries &&
               keyQueries == o.keyQueries;
    }
};

/**
 * Default options for one dataset, scaled so trace sizes stay bounded
 * (very high-dimensional datasets emit far more ops per query), and
 * shrunk further by @p scale (bench binaries honor HSU_QUICK=1 via
 * quickScale()).
 */
RunnerOptions optionsFor(const DatasetInfo &info, double scale = 1.0);

/** 0.25 when the HSU_QUICK environment variable is set, else 1.0. */
double quickScale();

/** Results of one dataset x algorithm experiment. */
struct WorkloadResult
{
    Algo algo;
    DatasetId dataset;
    std::string label;    //!< figure label ("D1B", "F-BUN", "B-BUN"...)
    RunResult base;       //!< non-RT baseline GPU
    RunResult hsu;        //!< HSU-enabled GPU
    StatGroup baseStats;  //!< full counter dumps for memory figures
    StatGroup hsuStats;

    /** Fig 9 metric: baseline cycles / HSU cycles. */
    double
    speedup() const
    {
        return hsu.cycles ? static_cast<double>(base.cycles) /
                                static_cast<double>(hsu.cycles)
                          : 0.0;
    }
};

/**
 * Run one (algorithm, dataset) experiment under @p gpu (an HSU-enabled
 * config; the baseline run disables the RT unit on a copy).
 */
WorkloadResult runWorkload(Algo algo, DatasetId dataset,
                           const GpuConfig &gpu,
                           const RunnerOptions &opts = RunnerOptions{});

/**
 * Emit the semantic (pre-lowering) trace of one (algorithm, dataset)
 * experiment — the IR every lowering variant of the workload shares.
 * Always performs the (expensive) functional kernel run; most callers
 * want emitSemanticShared() instead, which memoizes the result.
 */
SemKernelTrace emitSemantic(Algo algo, DatasetId dataset,
                            const RunnerOptions &opts);

/**
 * Memoized emission: the semantic trace of (algo, dataset, opts) as an
 * immutable shared artifact. The first request (from any thread) runs
 * the functional kernel once; every later request — the other side of
 * a base/HSU pair, every sweep point, every HSU_JOBS worker — returns
 * a pointer to the same trace. Sharing is by weak reference plus a
 * small MRU strong list, so peak RSS is bounded by the active working
 * set rather than by every workload the process ever touched (see
 * DESIGN.md "Trace lifetime and sharing" for the memory model).
 *
 * Emission is a pure function of its key, so the cached artifact is
 * bit-identical to a fresh emitSemantic() call.
 */
std::shared_ptr<const SemKernelTrace>
emitSemanticShared(Algo algo, DatasetId dataset,
                   const RunnerOptions &opts);

/**
 * Simulate one (algorithm, dataset) experiment under an explicit
 * lowering. The GPU config is used as given (callers enable the RT
 * unit when the lowering emits CISC instructions); runBaseOnly /
 * runHsuOnly are the two-point conveniences over this.
 */
RunResult runLowered(Algo algo, DatasetId dataset, const GpuConfig &gpu,
                     const RunnerOptions &opts, const Lowering &lowering,
                     StatGroup &stats);

/**
 * Run only the HSU-side simulation (sweeps that hold the baseline
 * fixed, e.g. Fig 10 / Fig 11, reuse the memoized baseline cycles from
 * runWorkload).
 */
RunResult runHsuOnly(Algo algo, DatasetId dataset, const GpuConfig &gpu,
                     const RunnerOptions &opts, StatGroup &stats);

/**
 * Run only the baseline-side simulation.
 */
RunResult runBaseOnly(Algo algo, DatasetId dataset, const GpuConfig &gpu,
                      const RunnerOptions &opts, StatGroup &stats);

/**
 * One independent simulation for the parallel executor: a full
 * workload (baseline + HSU), a single side for sweeps that vary the
 * GPU config while holding the other side fixed, or a caller-emitted
 * trace (ablations over custom kernels/trees).
 */
struct SimJob
{
    enum class Kind : std::uint8_t
    {
        Workload, //!< baseline + HSU pair (fills SimJobResult::workload)
        BaseOnly, //!< fills SimJobResult::run/stats
        HsuOnly,  //!< fills SimJobResult::run/stats
        Trace,    //!< simulate `trace` under `gpu` (run/stats)
        SemLower, //!< lower `sem` with `lowering`, then simulate
    };

    Kind kind = Kind::Workload;
    Algo algo = Algo::Ggnn;
    DatasetId dataset{};
    GpuConfig gpu;
    RunnerOptions opts;
    /** Kind::Trace only: the prebuilt trace to simulate (shared so a
     *  bench can submit the same emission under several configs). */
    std::shared_ptr<const KernelTrace> trace;
    /** Kind::SemLower only: a pre-emitted semantic trace shared across
     *  every job of a sweep (emit once, lower many). The lowered trace
     *  is created and destroyed inside the worker, so N in-flight jobs
     *  share ONE semantic trace instead of holding N lowered copies. */
    std::shared_ptr<const SemKernelTrace> sem;
    /** Kind::SemLower only: the lowering applied to `sem`. */
    Lowering lowering;
};

/** Result slot for one SimJob (which members are set depends on kind). */
struct SimJobResult
{
    WorkloadResult workload; //!< Kind::Workload
    RunResult run;           //!< Kind::BaseOnly/HsuOnly/Trace/SemLower
    StatGroup stats;         //!< Kind::BaseOnly/HsuOnly/Trace/SemLower
    /** Kind::SemLower only: instruction-mix stats of the lowered trace
     *  (the trace itself never leaves the worker). */
    TraceStats traceStats;
};

/**
 * Run independent simulation jobs across a worker pool and return
 * their results in submission order. Results are bit-identical to
 * running each job serially: index assets are built once per dataset
 * under a lock, query generation is a pure function of the dataset
 * seed, and each simulation owns its StatGroup.
 *
 * @param num_threads worker count; 0 -> HSU_JOBS env var, else
 *                    hardware concurrency
 */
std::vector<SimJobResult> runJobsParallel(std::vector<SimJob> jobs,
                                          unsigned num_threads = 0);

/**
 * Convenience fan-out for figure fleets: run each (algo, dataset)
 * workload with options optionsFor(dataset, scale), in parallel,
 * returning results in input order.
 */
std::vector<WorkloadResult>
runWorkloadsParallel(const std::vector<std::pair<Algo, DatasetId>> &work,
                     const GpuConfig &gpu, double scale = 1.0,
                     unsigned num_threads = 0);

/**
 * Kernel knobs the serving layer (src/serve) may degrade under load.
 * Only GGNN has quality knobs; the point/key kernels are exact and can
 * only shed.
 */
struct ServeKnobs
{
    unsigned ggnnEf = 32; //!< GGNN layer-0 beam width
    unsigned ggnnK = 10;  //!< GGNN result count

    bool
    operator==(const ServeKnobs &o) const
    {
        return ggnnEf == o.ggnnEf && ggnnK == o.ggnnK;
    }
};

/**
 * Read-only access to the deterministic serving query pool that
 * serving requests reference by query id: a pure function of the
 * dataset seed. The sharded serving layer routes, emits batches
 * (shard/shard_index emitShardBatchTrace) and answers against this one
 * pool, so router pruning, batch emission and shard answers all see
 * identical query payloads. Built once per (dataset, pool size) and
 * cached.
 * @pre the dataset kind is HighDim/Point3d.
 */
const PointSet &serveQueryPoints(DatasetId dataset,
                                 std::size_t pool_size);

/** Keys-dataset flavor of serveQueryPoints(). @pre kind is Keys. */
const std::vector<std::uint32_t> &
serveQueryKeys(DatasetId dataset, std::size_t pool_size);

/**
 * Coherence sort keys for the serving query pool, one 63-bit code per
 * query id. Point and high-dimensional datasets get the Morton code of
 * the query's leading three coordinates over the pool's tight AABB
 * (geom/morton mortonCodes63); key datasets get the lookup key itself,
 * zero-extended. Sorting a dynamic batch by these keys puts spatially
 * (or key-range) adjacent queries next to each other, so their warps
 * traverse the same index nodes — the serve-layer coherent batch
 * policy's whole effect rides on batch emission
 * (shard/shard_index emitShardBatchTrace) emitting queries in exactly
 * the order given. Built once per (dataset, pool size) and cached.
 */
const std::vector<std::uint64_t> &
serveQueryCoherenceKeys(DatasetId dataset, std::size_t pool_size);

/** Datasets an algorithm is evaluated on (Table II usage). */
std::vector<DatasetId> datasetsForAlgo(Algo algo);

/** Figure label for (algo, dataset): FLANN/BVH-NN 3-D datasets carry
 *  the paper's "F-"/"B-" prefixes. */
std::string workloadLabel(Algo algo, const DatasetInfo &info);

/** Pick a BVH-NN/search radius for a 3-D dataset: twice the median
 *  nearest-neighbor spacing of a deterministic sample. The exact
 *  nearest neighbor of each sampled point is found with a uniform-grid
 *  ring scan (O(samples x density) instead of O(samples x N)); the
 *  result is bit-identical to the brute-force scan it replaced. */
float pickRadius(const PointSet &points, std::uint64_t seed = 42);

} // namespace hsu

#endif // HSU_SEARCH_RUNNER_HH
