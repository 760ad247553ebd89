/**
 * @file
 * Minimal online ANN serving demo.
 *
 * Stands up the simulated query server (the serving engine as one
 * shard on two GPU instances) over the GGNN workload and pushes two
 * open-loop traffic patterns at it — steady Poisson and a bursty
 * Markov-modulated process with the same mean rate — then prints the
 * latency distribution each one experiences. Burstiness at
 * equal mean load is exactly what batch-throughput numbers hide: the
 * burst state saturates the instances and the p99 pays for it.
 *
 * Build & run:  ./build/examples/ann_server
 */

#include <cstdio>

#include "shard/cluster.hh"

using namespace hsu;

namespace
{

void
report(const char *label, const shard::ClusterReport &rep)
{
    std::printf("%-8s offered=%llu completed=%llu shed=%.1f%% "
                "degraded=%llu batches=%llu\n",
                label, static_cast<unsigned long long>(rep.offered),
                static_cast<unsigned long long>(rep.completed),
                100.0 * rep.shedFraction(),
                static_cast<unsigned long long>(
                    rep.shardSum(&shard::ShardReport::degraded)),
                static_cast<unsigned long long>(
                    rep.shardSum(&shard::ShardReport::batches)));
    std::printf("         latency p50=%.1fus p95=%.1fus p99=%.1fus "
                "max=%.1fus | achieved=%.0f qps\n",
                rep.latencyUs(50.0), rep.latencyUs(95.0),
                rep.latencyUs(99.0),
                rep.latencyCycles.max() / serve::kClockHz * 1.0e6,
                rep.achievedQps());
}

} // namespace

int
main()
{
    const Algo algo = Algo::Ggnn;
    const DatasetId dataset = DatasetId::Sift10k;

    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 4;
    cfg.gpu.finalize();
    cfg.partition = shard::PartitionPolicy::Hash;
    cfg.numShards = 1;
    cfg.instancesPerReplica = 2;
    cfg.queryPoolSize = 512;

    serve::ArrivalConfig arr;
    arr.ratePerCycle = serve::ArrivalConfig::ratePerCycleFromQps(6000.0);
    arr.queryPoolSize = cfg.queryPoolSize;
    arr.deadlineCycles = 100'000'000; // 100 ms SLO at 1 GHz
    arr.seed = 7;

    std::printf("ANN serving demo: %s on %s, %u instances, "
                "mean load 6000 qps\n\n",
                toString(algo).c_str(),
                datasetInfo(dataset).abbr.c_str(),
                cfg.instancesPerReplica);

    // Steady Poisson traffic.
    serve::ArrivalGenerator poisson(arr, algo, dataset);
    shard::ClusterServer server(algo, dataset, cfg);
    report("poisson", server.run(poisson.generate(128)));

    // Bursty traffic at the same mean rate.
    arr.process = serve::ArrivalProcess::Bursty;
    arr.burstFactor = 4.0;
    arr.burstFraction = 0.2;
    serve::ArrivalGenerator bursty(arr, algo, dataset);
    report("bursty", server.run(bursty.generate(128)));

    return 0;
}
