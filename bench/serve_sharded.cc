/**
 * @file
 * Sharded multi-GPU serving: QPS-vs-p99 knee as a function of shard
 * count x replica count, HSU vs non-RT baseline lowering.
 *
 * Beyond the paper: serve_latency drives ONE shard with open-loop
 * traffic; this bench drives a cluster (src/shard) — each of
 * the four index families partitioned over N simulated GPUs (spatial
 * policy), R replicas per shard, scatter-gather routing across a
 * latency+bandwidth interconnect, and a deterministic top-k merge at
 * the router. The offered-load grid is expressed in multiples of the
 * calibrated single-GPU baseline capacity, so the saturation knee's
 * rightward shift with shard/replica count is read directly off the
 * "Load x" column: single-owner workloads (B+tree) scale ~linearly
 * with GPU count, broadcast workloads (GGNN/FLANN) pay the fan-out
 * tax, and range-pruned radius queries (BVH-NN) sit in between.
 *
 * Contracts checked inline (exit 1 on violation, the CI smoke gate):
 *  - merged sharded answers are bit-identical to the unsharded oracle
 *    for every family at every swept shard count;
 *  - cluster reports are bit-identical across HSU_JOBS worker counts.
 *
 * Emits BENCH_serve_sharded.json. HSU_SHARDS=N (or --shards N)
 * restricts the sweep to one shard count.
 */

#include <numeric>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "shard/answers.hh"
#include "shard/cluster.hh"
#include "shard/shard_index.hh"

using namespace hsu;

namespace
{

const std::pair<Algo, DatasetId> kWorkloads[] = {
    {Algo::Ggnn, DatasetId::Sift10k},
    {Algo::Flann, DatasetId::Random10k},
    {Algo::Bvhnn, DatasetId::Random10k},
    {Algo::Btree, DatasetId::BTree10k},
};

unsigned
maxBatchFor(Algo algo)
{
    switch (algo) {
      case Algo::Ggnn:
        return 32;
      case Algo::Flann:
        return 256;
      case Algo::Bvhnn:
        return 512;
      case Algo::Btree:
        return 512;
    }
    return 32;
}

/** Single-GPU baseline capacity (full batch on the non-RT GPU), the
 *  common denominator of the load grid across cluster shapes. */
double
singleGpuCapacityQps(Algo algo, DatasetId dataset,
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
    return serve::kClockHz * static_cast<double>(cfg.pipeline.batch.maxBatch) /
           static_cast<double>(cycles);
}

struct SweepPoint
{
    Algo algo;
    std::string dataset;
    bool hsu = false;
    serve::BatchPolicyKind policy = serve::BatchPolicyKind::Fifo;
    unsigned shards = 1;
    unsigned replicas = 1;
    double loadMult = 0.0;
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double shedFraction = 0.0;
    double meanFanout = 0.0;
    std::uint64_t subqueries = 0;
};

bool
sameReport(const shard::ClusterReport &a, const shard::ClusterReport &b)
{
    return a.completed == b.completed &&
           a.partialAnswers == b.partialAnswers &&
           a.shedRequests == b.shedRequests &&
           a.subqueries == b.subqueries &&
           a.lastCompletionCycle == b.lastCompletionCycle &&
           a.latencyCycles.count() == b.latencyCycles.count() &&
           a.latencyCycles.sum() == b.latencyCycles.sum() &&
           a.latencyCycles.max() == b.latencyCycles.max();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("serve_sharded",
                   "sharded multi-GPU serving sweep: QPS-vs-p99 knee "
                   "over shard x replica count, HSU vs baseline");
    bool quick = false;
    bool smoke = false;
    unsigned jobs = 0;
    unsigned shards_override = 0;
    std::string policy_arg = "fifo";
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "2 load points / 2 batches per point");
    args.flag(smoke, "smoke",
              "CI gate: quick sweep + hard contract checks");
    args.envOpt(jobs, "jobs", "HSU_JOBS",
                "worker threads for batch simulations");
    args.envOpt(shards_override, "shards", "HSU_SHARDS",
                "restrict the sweep to one shard count");
    args.envOpt(policy_arg, "policy", "HSU_BATCH_POLICY",
                "per-lane batch order: fifo|coherent|both");
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

    std::vector<unsigned> shard_counts =
        quick ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4};
    if (shards_override > 0)
        shard_counts = {shards_override};
    const std::vector<unsigned> replica_counts =
        quick ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 2};
    const std::vector<double> load_multipliers =
        quick ? std::vector<double>{0.8, 2.0}
              : std::vector<double>{0.5, 1.0, 2.0, 4.0};
    const std::size_t batches_per_point = quick ? 2 : 6;

    bool contracts_ok = true;

    // Contract 1: scatter-gather merge correctness. The merged sharded
    // answer set must be bit-identical to the unsharded oracle for
    // every family at every swept shard count.
    for (const auto &[algo, dataset] : kWorkloads) {
        std::vector<std::uint32_t> queries(32);
        std::iota(queries.begin(), queries.end(), 0u);
        const shard::AnswerSet golden =
            shard::answerUnsharded(algo, dataset, queries, 64);
        for (const unsigned n : shard_counts) {
            const shard::AnswerSet merged = shard::answerSharded(
                algo, dataset, shard::PartitionPolicy::Spatial, n,
                queries, 64);
            if (!(merged == golden)) {
                contracts_ok = false;
                std::cerr << "[serve_sharded] MERGE MISMATCH "
                          << toString(algo) << " shards=" << n << "\n";
            }
        }
    }

    Table t("Sharded serving: open-loop Poisson traffic over N shards "
            "x R replicas (spatial partitioning; load grid = multiples "
            "of the single-GPU baseline full-batch capacity)",
            {"Algo", "Variant", "Policy", "SxR", "Load x",
             "Offered QPS", "Achieved QPS", "p50 us", "p99 us", "Shed",
             "Fanout"});

    std::vector<SweepPoint> points;
    for (const auto &[algo, dataset] : kWorkloads) {
        shard::ClusterConfig proto;
        proto.gpu = bench::defaultGpu();
        proto.queryPoolSize = 1024;
        proto.pipeline.batch.maxBatch = maxBatchFor(algo);
        proto.pipeline.degrade.highWater = 2 * proto.pipeline.batch.maxBatch;
        proto.pipeline.degrade.shedWater = 16 * proto.pipeline.batch.maxBatch;
        // NVLink-class hop: fixed latency plus a bandwidth term.
        proto.link.latencyCycles = 2'000;
        proto.link.bytesPerCycle = 16.0;
        proto.mergeCyclesPerShard = 200;

        const double cap_qps =
            singleGpuCapacityQps(algo, dataset, proto);
        const std::size_t requests_per_point =
            batches_per_point * proto.pipeline.batch.maxBatch;

        for (const unsigned shards : shard_counts) {
            for (const unsigned replicas : replica_counts) {
                for (const double mult : load_multipliers) {
                    const double offered_qps = mult * cap_qps;
                    serve::ArrivalConfig arr;
                    arr.process = serve::ArrivalProcess::Poisson;
                    arr.ratePerCycle =
                        serve::ArrivalConfig::ratePerCycleFromQps(
                            offered_qps);
                    arr.queryPoolSize = proto.queryPoolSize;
                    arr.deadlineCycles = static_cast<Cycle>(
                        40.0 * serve::kClockHz *
                        static_cast<double>(proto.pipeline.batch.maxBatch) /
                        cap_qps);
                    arr.seed = 0xcafe +
                               static_cast<std::uint64_t>(mult * 100);
                    const std::vector<serve::Request> stream =
                        serve::ArrivalGenerator(arr, algo, dataset)
                            .generate(requests_per_point);

                    for (const serve::BatchPolicyKind policy :
                         policies)
                    for (const bool hsu_on : {false, true}) {
                        shard::ClusterConfig cfg = proto;
                        cfg.numShards = shards;
                        cfg.replicasPerShard = replicas;
                        cfg.gpu.rtUnitEnabled = hsu_on;
                        cfg.pipeline.policy = policy;
                        cfg.jobs = jobs;
                        shard::ClusterServer cluster(algo, dataset,
                                                     cfg);
                        const shard::ClusterReport rep =
                            cluster.run(stream);

                        SweepPoint pt;
                        pt.algo = algo;
                        pt.dataset =
                            datasetInfo(dataset).paperName;
                        pt.hsu = hsu_on;
                        pt.policy = policy;
                        pt.shards = shards;
                        pt.replicas = replicas;
                        pt.loadMult = mult;
                        pt.offeredQps = offered_qps;
                        pt.achievedQps = rep.achievedQps();
                        pt.p50Us = rep.latencyUs(50.0);
                        pt.p99Us = rep.latencyUs(99.0);
                        pt.shedFraction = rep.shedFraction();
                        pt.meanFanout =
                            rep.fanout.count()
                                ? rep.fanout.sum() /
                                      static_cast<double>(
                                          rep.fanout.count())
                                : 0.0;
                        pt.subqueries = rep.subqueries;
                        points.push_back(pt);

                        t.addRow({toString(algo),
                                  hsu_on ? "HSU" : "base",
                                  serve::toString(policy),
                                  std::to_string(shards) + "x" +
                                      std::to_string(replicas),
                                  Table::num(mult, 2),
                                  Table::num(offered_qps, 0),
                                  Table::num(pt.achievedQps, 0),
                                  Table::num(pt.p50Us, 1),
                                  Table::num(pt.p99Us, 1),
                                  Table::pct(pt.shedFraction),
                                  Table::num(pt.meanFanout, 2)});
                    }
                }
            }
        }
    }
    t.print(std::cout);

    // Contract 2: cluster reports are bit-identical across worker
    // counts (the determinism contract the whole repo rides on).
    {
        shard::ClusterConfig cfg;
        cfg.gpu = bench::defaultGpu();
        cfg.numShards = shard_counts.back();
        cfg.replicasPerShard = replica_counts.back();
        cfg.pipeline.batch.maxBatch = 32;
        cfg.queryPoolSize = 64;
        cfg.link.latencyCycles = 1'000;
        serve::ArrivalConfig arr;
        arr.ratePerCycle = 1.0e-4;
        arr.queryPoolSize = 64;
        arr.seed = 7;
        const auto stream =
            serve::ArrivalGenerator(arr, Algo::Btree,
                                    DatasetId::BTree10k)
                .generate(64);
        cfg.jobs = 1;
        const shard::ClusterReport serial =
            shard::ClusterServer(Algo::Btree, DatasetId::BTree10k, cfg)
                .run(stream);
        cfg.jobs = 4;
        const shard::ClusterReport parallel =
            shard::ClusterServer(Algo::Btree, DatasetId::BTree10k, cfg)
                .run(stream);
        if (!sameReport(serial, parallel)) {
            contracts_ok = false;
            std::cerr << "[serve_sharded] JOBS MISMATCH: cluster "
                         "report differs between jobs=1 and jobs=4\n";
        }
    }

    std::ofstream out("BENCH_serve_sharded.json");
    if (!out) {
        hsu_warn("cannot write BENCH_serve_sharded.json");
    } else {
        out.precision(6);
        out << std::fixed;
        out << "{\n  \"bench\": \"serve_sharded\",\n  \"smoke\": "
            << (smoke ? "true" : "false") << ",\n  \"contracts_ok\": "
            << (contracts_ok ? "true" : "false")
            << ",\n  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            out << "    {\"algo\": \"" << toString(p.algo)
                << "\", \"dataset\": \"" << p.dataset
                << "\", \"variant\": \"" << (p.hsu ? "hsu" : "base")
                << "\", \"policy\": \"" << serve::toString(p.policy)
                << "\", \"shards\": " << p.shards
                << ", \"replicas\": " << p.replicas
                << ", \"load_mult\": " << p.loadMult
                << ", \"offered_qps\": " << p.offeredQps
                << ", \"achieved_qps\": " << p.achievedQps
                << ", \"p50_us\": " << p.p50Us
                << ", \"p99_us\": " << p.p99Us
                << ", \"shed_fraction\": " << p.shedFraction
                << ", \"mean_fanout\": " << p.meanFanout
                << ", \"subqueries\": " << p.subqueries << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }

    if (!contracts_ok) {
        std::cerr << "[serve_sharded] FAIL: contract violation\n";
        return 1;
    }
    if (smoke)
        std::cerr << "[serve_sharded] smoke gate passed\n";
    return 0;
}
