/**
 * @file
 * Online serving: latency vs offered load, HSU vs non-RT baseline,
 * FIFO vs coherence-aware batch ordering, and the answer cache.
 *
 * Beyond the paper: the paper (and our fig* fleet) reports closed-loop
 * batch throughput; this bench drives the same simulated hardware with
 * open-loop Poisson traffic through the serving engine
 * (shard::ClusterServer as one shard of two GPU instances) and reports
 * three families of curves:
 *
 *  1. Policy sweep — p50/p99/QPS at each offered load for every
 *     (batch policy x GPU variant) pair, plus the memory-system
 *     columns that explain the gap: L1 hit rate and warp-buffer
 *     residency. The coherent policy Morton-orders point queries
 *     (key-orders B+tree lookups) inside each batch, so neighboring
 *     lanes walk neighboring subtrees — the RTNN observation applied
 *     to the serving path.
 *  2. Cache sweep — cache-hit-rate vs tail latency under a Zipf
 *     popularity stream for answer-cache capacities {0, 64, 256}.
 *  3. --smoke contract gate (CI): batch reordering is timing-only.
 *     Per-query answers for a coherently-ordered batch, un-permuted
 *     back to arrival order, must be bit-identical to the FIFO-order
 *     answers (shard::answerUnsharded oracle); at light load both
 *     policies must complete every request. Exit 1 on violation.
 *
 * Offered loads are multiples of each workload's calibrated *baseline*
 * capacity (full-batch service rate), so all variants face the same
 * absolute QPS grid. Output is bit-identical across HSU_JOBS settings
 * and repeated runs: arrivals are seeded, batch formation is
 * deterministic, and batch service times are pure functions of batch
 * contents.
 *
 * Emits BENCH_serve_latency.json. Knobs: --policy/HSU_BATCH_POLICY
 * (fifo|coherent|both), --cache-capacity/HSU_CACHE_CAPACITY (restrict
 * the cache sweep to one capacity), --cache-tolerance/
 * HSU_CACHE_TOLERANCE (>0: recall-tolerant point-query hits, in
 * coarsened Morton levels).
 */

#include <algorithm>
#include <numeric>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "shard/answers.hh"
#include "shard/cluster.hh"
#include "shard/shard_index.hh"

using namespace hsu;

namespace
{

/** Representative (small) dataset per algorithm class. */
const std::pair<Algo, DatasetId> kServeWorkloads[] = {
    {Algo::Ggnn, DatasetId::Sift10k},
    {Algo::Flann, DatasetId::Bunny},
    {Algo::Bvhnn, DatasetId::Random10k},
    {Algo::Btree, DatasetId::BTree10k},
};

/**
 * Calibrate one workload's baseline capacity: simulated cycles of a
 * full batch on the non-RT GPU, turned into a saturation QPS for the
 * whole server (instancesPerReplica concurrent batches).
 */
double
baselineCapacityQps(Algo algo, DatasetId dataset,
                    const shard::ClusterConfig &cfg)
{
    GpuConfig base = cfg.gpu;
    base.rtUnitEnabled = false;
    std::vector<std::uint32_t> ids(cfg.pipeline.batch.maxBatch);
    std::iota(ids.begin(), ids.end(), 0u);
    const std::shared_ptr<const KernelTrace> trace =
        shard::emitShardBatchTrace(
            algo, shard::ShardKey{dataset, cfg.partition, 1, 0},
            KernelVariant::Baseline, base.datapath, ids,
            cfg.queryPoolSize);
    StatGroup stats;
    const std::uint64_t cycles =
        simulateKernel(base, trace, stats).cycles +
        cfg.launchOverheadCycles;
    return serve::kClockHz *
           static_cast<double>(cfg.pipeline.batch.maxBatch *
                               cfg.instancesPerReplica) /
           static_cast<double>(cycles);
}

/**
 * Batch width per algorithm. GGNN maps one warp per query, so 32
 * requests already launch 32 warps; the point/key kernels pack 32
 * queries per warp and only show their HSU advantage once a launch is
 * tens of warps wide (the offline benches use 4096/8192 queries) —
 * batch caps are sized so a full batch meaningfully occupies the GPU.
 */
unsigned
maxBatchFor(Algo algo)
{
    switch (algo) {
      case Algo::Ggnn:
        return 32;
      case Algo::Flann:
        return 256;
      case Algo::Bvhnn:
        return 1024;
      case Algo::Btree:
        return 512;
    }
    return 32;
}

/**
 * One shard served by two GPU instances behind one queue, over a
 * zero-cost link. Hash partitioning routes every query to the one
 * shard; a spatial one would let the router answer B+tree keys outside
 * the key range without a launch.
 */
shard::ClusterConfig
serveConfig(Algo algo)
{
    shard::ClusterConfig cfg;
    cfg.gpu = bench::defaultGpu();
    cfg.partition = shard::PartitionPolicy::Hash;
    cfg.numShards = 1;
    cfg.instancesPerReplica = 2;
    cfg.queryPoolSize = 1024;
    cfg.pipeline.batch.maxBatch = maxBatchFor(algo);
    cfg.pipeline.degrade.highWater = 2 * cfg.pipeline.batch.maxBatch;
    cfg.pipeline.degrade.shedWater = 16 * cfg.pipeline.batch.maxBatch;
    return cfg;
}

struct SweepPoint
{
    Algo algo;
    std::string dataset;
    bool hsu = false;
    serve::BatchPolicyKind policy = serve::BatchPolicyKind::Fifo;
    double loadMult = 0.0;
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double shedFraction = 0.0;
    double l1HitRate = 0.0;
    double warpResidency = 0.0;
};

struct CachePoint
{
    Algo algo;
    bool hsu = false;
    std::size_t capacity = 0;
    double hitRate = 0.0;
    double achievedQps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

/**
 * Answer-correctness contract: coherent ordering is a timing
 * optimization only. Order a scrambled id list the way the coherent
 * policy would, answer both orders with the unsharded oracle, and
 * un-permute — the answer sets must match bit-for-bit.
 */
bool
coherentAnswersMatchFifo(Algo algo, DatasetId dataset,
                         std::size_t pool_size)
{
    // A scrambled-but-deterministic id list (reversed strided walk),
    // so the coherent sort actually permutes something.
    std::vector<std::uint32_t> fifo_ids;
    for (std::uint32_t i = 0; i < 32; ++i)
        fifo_ids.push_back(((31 - i) * 7) % 64);

    const std::vector<std::uint64_t> &keys =
        serveQueryCoherenceKeys(dataset, pool_size);
    std::vector<std::size_t> order(fifo_ids.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return keys[fifo_ids[a]] < keys[fifo_ids[b]];
                     });
    std::vector<std::uint32_t> coherent_ids(fifo_ids.size());
    for (std::size_t j = 0; j < order.size(); ++j)
        coherent_ids[j] = fifo_ids[order[j]];

    const shard::AnswerSet fifo =
        shard::answerUnsharded(algo, dataset, fifo_ids, pool_size);
    const shard::AnswerSet coherent =
        shard::answerUnsharded(algo, dataset, coherent_ids, pool_size);

    // Un-permute the coherent answers back to arrival order.
    shard::AnswerSet unpermuted = fifo; // right shape per family
    for (std::size_t j = 0; j < order.size(); ++j) {
        if (!coherent.topk.empty())
            unpermuted.topk[order[j]] = coherent.topk[j];
        if (!coherent.nearest.empty())
            unpermuted.nearest[order[j]] = coherent.nearest[j];
        if (!coherent.radius.empty())
            unpermuted.radius[order[j]] = coherent.radius[j];
        if (!coherent.values.empty())
            unpermuted.values[order[j]] = coherent.values[j];
    }
    return unpermuted == fifo;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("serve_latency",
                   "open-loop serving latency sweep: HSU vs non-RT "
                   "baseline, FIFO vs coherent batching, answer cache");
    bool quick = false;
    bool smoke = false;
    unsigned jobs = 0;
    std::string policy_arg = "both";
    unsigned cache_capacity = 0;
    unsigned cache_tolerance = 0;
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "2 sweep points / 2 batches per point");
    args.flag(smoke, "smoke",
              "CI gate: quick sweep + answer-correctness contracts");
    args.envOpt(jobs, "jobs", "HSU_JOBS",
                "worker threads for parallel phases");
    args.envOpt(policy_arg, "policy", "HSU_BATCH_POLICY",
                "batch order: fifo|coherent|both");
    args.envOpt(cache_capacity, "cache-capacity", "HSU_CACHE_CAPACITY",
                "restrict the cache sweep to one capacity");
    args.envOpt(cache_tolerance, "cache-tolerance",
                "HSU_CACHE_TOLERANCE",
                "recall-tolerant point-query hits: coarsened Morton "
                "levels (0 = exact)");
    if (!args.parse(argc, argv))
        return args.exitCode();
    if (smoke)
        quick = true;

    std::vector<serve::BatchPolicyKind> policies;
    if (policy_arg == "both") {
        policies = {serve::BatchPolicyKind::Fifo,
                    serve::BatchPolicyKind::Coherent};
    } else {
        policies = {serve::parseBatchPolicy(policy_arg)};
    }

    // ~8 full batches of traffic per sweep point (2 in quick mode).
    const std::size_t batches_per_point = quick ? 2 : 8;
    const std::vector<double> load_multipliers =
        quick ? std::vector<double>{0.5, 1.2}
              : std::vector<double>{0.3, 0.6, 0.9, 1.2, 1.5};

    bool contracts_ok = true;

    // Contract 1 (--smoke gate, cheap enough to always run): coherent
    // ordering must not change any per-query answer.
    for (const auto &[algo, dataset] : kServeWorkloads) {
        if (!coherentAnswersMatchFifo(algo, dataset, 1024)) {
            contracts_ok = false;
            std::cerr << "[serve_latency] ANSWER MISMATCH: coherent "
                         "ordering changed answers for "
                      << toString(algo) << "\n";
        }
    }

    Table t("Online serving: open-loop Poisson traffic, HSU vs non-RT "
            "baseline x FIFO vs coherent batching (p50/p99 at 1 GHz; "
            "load grid = multiples of the baseline full-batch "
            "capacity)",
            {"Algo", "Variant", "Policy", "Load x", "Offered QPS",
             "Achieved QPS", "p50 us", "p99 us", "Shed", "L1 hit",
             "WarpRes"});

    std::vector<SweepPoint> points;
    for (const auto &[algo, dataset] : kServeWorkloads) {
        const shard::ClusterConfig cfg = serveConfig(algo);
        const std::size_t requests_per_point =
            batches_per_point * cfg.pipeline.batch.maxBatch;
        const double cap_qps = baselineCapacityQps(algo, dataset, cfg);

        for (const double mult : load_multipliers) {
            const double offered_qps = mult * cap_qps;

            serve::ArrivalConfig arr;
            arr.process = serve::ArrivalProcess::Poisson;
            arr.ratePerCycle =
                serve::ArrivalConfig::ratePerCycleFromQps(offered_qps);
            arr.queryPoolSize = cfg.queryPoolSize;
            // SLO: generous multiple of an unloaded baseline batch, so
            // only genuine queueing blowups shed.
            arr.deadlineCycles = static_cast<Cycle>(
                40.0 * serve::kClockHz *
                static_cast<double>(cfg.pipeline.batch.maxBatch *
                                    cfg.instancesPerReplica) /
                cap_qps);
            arr.seed = 0xbeef + static_cast<std::uint64_t>(mult * 100);
            const std::vector<serve::Request> stream =
                serve::ArrivalGenerator(arr, algo, dataset)
                    .generate(requests_per_point);

            for (const serve::BatchPolicyKind policy : policies) {
                for (const bool hsu_on : {false, true}) {
                    shard::ClusterConfig point = cfg;
                    point.gpu.rtUnitEnabled = hsu_on;
                    point.pipeline.policy = policy;
                    point.jobs = jobs;
                    shard::ClusterServer server(algo, dataset, point);
                    const shard::ClusterReport rep = server.run(stream);

                    SweepPoint pt;
                    pt.algo = algo;
                    pt.dataset = datasetInfo(dataset).paperName;
                    pt.hsu = hsu_on;
                    pt.policy = policy;
                    pt.loadMult = mult;
                    pt.offeredQps = offered_qps;
                    pt.achievedQps = rep.achievedQps();
                    pt.p50Us = rep.latencyUs(50.0);
                    pt.p99Us = rep.latencyUs(99.0);
                    pt.shedFraction = rep.shedFraction();
                    pt.l1HitRate = rep.l1HitRate();
                    pt.warpResidency = rep.warpBufferResidency();
                    points.push_back(pt);

                    t.addRow({toString(algo), hsu_on ? "HSU" : "base",
                              serve::toString(policy),
                              Table::num(mult, 2),
                              Table::num(offered_qps, 0),
                              Table::num(pt.achievedQps, 0),
                              Table::num(pt.p50Us, 1),
                              Table::num(pt.p99Us, 1),
                              Table::pct(pt.shedFraction),
                              Table::pct(pt.l1HitRate),
                              Table::pct(pt.warpResidency)});

                    // Contract 2: request conservation, and at light
                    // load (no shedding possible) both policies
                    // complete every request.
                    if (rep.completed + rep.shedRequests !=
                        rep.offered) {
                        contracts_ok = false;
                        std::cerr << "[serve_latency] CONSERVATION "
                                     "VIOLATION "
                                  << toString(algo) << " policy="
                                  << serve::toString(policy) << "\n";
                    }
                    if (mult < 0.55 && rep.completed != rep.offered) {
                        contracts_ok = false;
                        std::cerr
                            << "[serve_latency] LIGHT-LOAD LOSS "
                            << toString(algo) << " policy="
                            << serve::toString(policy) << ": completed "
                            << rep.completed << "/" << rep.offered
                            << "\n";
                    }
                }
            }
        }
    }
    t.print(std::cout);

    // Cache sweep: hit rate vs tail latency under a Zipf popularity
    // stream. Half the baseline capacity, so completions interleave
    // arrivals and the cache actually warms: a hit needs its query
    // answered (and inserted) before the repeat arrives — at
    // saturation the whole stream is in flight before the first
    // insert. Twice the policy sweep's stream length gives the warm
    // cache a tail to serve.
    std::vector<std::size_t> capacities = {0, 64, 256};
    if (cache_capacity > 0)
        capacities = {cache_capacity};
    Table ct("Answer cache under a Zipf(1.3) stream at 0.5x baseline "
             "capacity: hit rate vs tail latency",
             {"Algo", "Variant", "Cache", "Hit rate", "Achieved QPS",
              "p50 us", "p99 us"});
    std::vector<CachePoint> cache_points;
    for (const auto &[algo, dataset] : kServeWorkloads) {
        const shard::ClusterConfig cfg = serveConfig(algo);
        const double cap_qps = baselineCapacityQps(algo, dataset, cfg);
        serve::ArrivalConfig arr;
        arr.ratePerCycle =
            serve::ArrivalConfig::ratePerCycleFromQps(0.5 * cap_qps);
        arr.queryPoolSize = cfg.queryPoolSize;
        arr.queryDist = serve::QueryDist::Zipf;
        arr.zipfExponent = 1.3;
        arr.seed = 0xf00d;
        const std::vector<serve::Request> stream =
            serve::ArrivalGenerator(arr, algo, dataset)
                .generate(2 * batches_per_point *
                          cfg.pipeline.batch.maxBatch);

        for (const std::size_t capacity : capacities) {
            for (const bool hsu_on : {false, true}) {
                shard::ClusterConfig point = cfg;
                point.gpu.rtUnitEnabled = hsu_on;
                point.jobs = jobs;
                point.pipeline.cache.capacity = capacity;
                if (cache_tolerance > 0) {
                    point.pipeline.cache.mode =
                        serve::CacheMode::Tolerant;
                    point.pipeline.cache.toleranceLevels =
                        cache_tolerance;
                }
                shard::ClusterServer server(algo, dataset, point);
                const shard::ClusterReport rep = server.run(stream);

                CachePoint cp;
                cp.algo = algo;
                cp.hsu = hsu_on;
                cp.capacity = capacity;
                cp.hitRate = rep.cacheHitRate();
                cp.achievedQps = rep.achievedQps();
                cp.p50Us = rep.latencyUs(50.0);
                cp.p99Us = rep.latencyUs(99.0);
                cache_points.push_back(cp);

                ct.addRow({toString(algo), hsu_on ? "HSU" : "base",
                           std::to_string(capacity),
                           Table::pct(cp.hitRate),
                           Table::num(cp.achievedQps, 0),
                           Table::num(cp.p50Us, 1),
                           Table::num(cp.p99Us, 1)});
            }
        }
    }
    ct.print(std::cout);

    std::ofstream out("BENCH_serve_latency.json");
    if (!out) {
        hsu_warn("cannot write BENCH_serve_latency.json");
    } else {
        out.precision(6);
        out << std::fixed;
        out << "{\n  \"bench\": \"serve_latency\",\n  \"smoke\": "
            << (smoke ? "true" : "false") << ",\n  \"contracts_ok\": "
            << (contracts_ok ? "true" : "false")
            << ",\n  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            out << "    {\"algo\": \"" << toString(p.algo)
                << "\", \"dataset\": \"" << p.dataset
                << "\", \"variant\": \"" << (p.hsu ? "hsu" : "base")
                << "\", \"policy\": \"" << serve::toString(p.policy)
                << "\", \"load_mult\": " << p.loadMult
                << ", \"offered_qps\": " << p.offeredQps
                << ", \"achieved_qps\": " << p.achievedQps
                << ", \"p50_us\": " << p.p50Us
                << ", \"p99_us\": " << p.p99Us
                << ", \"shed_fraction\": " << p.shedFraction
                << ", \"l1_hit_rate\": " << p.l1HitRate
                << ", \"warp_residency\": " << p.warpResidency << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"cache_points\": [\n";
        for (std::size_t i = 0; i < cache_points.size(); ++i) {
            const CachePoint &p = cache_points[i];
            out << "    {\"algo\": \"" << toString(p.algo)
                << "\", \"variant\": \"" << (p.hsu ? "hsu" : "base")
                << "\", \"capacity\": " << p.capacity
                << ", \"hit_rate\": " << p.hitRate
                << ", \"achieved_qps\": " << p.achievedQps
                << ", \"p50_us\": " << p.p50Us
                << ", \"p99_us\": " << p.p99Us << "}"
                << (i + 1 < cache_points.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }

    std::printf("batches/point=%zu instances=2 "
                "maxBatch=32(GGNN)/256(FLANN)/1024(BVH-NN)/512(B+tree) "
                "policies=%s\n",
                batches_per_point, policy_arg.c_str());

    if (!contracts_ok) {
        std::cerr << "[serve_latency] FAIL: contract violation\n";
        return 1;
    }
    if (smoke)
        std::cerr << "[serve_latency] smoke gate passed\n";
    return 0;
}
