/**
 * @file
 * End-to-end serving-loop semantics of a single-GPU server — the
 * serving engine as one shard, one replica and k instances over a
 * zero-cost link: request conservation, overload response, and
 * bit-identical results across simulation thread counts (the instances
 * fan batch simulations over the shared ThreadPool; this test is the
 * TSan target for that path).
 */

#include <gtest/gtest.h>

#include "shard/cluster.hh"

namespace hsu::shard
{
namespace
{

using serve::ArrivalConfig;
using serve::ArrivalGenerator;
using serve::Request;

ClusterConfig
smallConfig(unsigned instances = 2)
{
    ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.partition = PartitionPolicy::Hash; // every key reaches shard 0
    cfg.numShards = 1;
    cfg.instancesPerReplica = instances;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    return cfg;
}

std::vector<Request>
stream(Algo algo, DatasetId dataset, double rate_per_cycle,
       std::size_t count, Cycle deadline = 0,
       std::uint64_t seed = 21)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate_per_cycle;
    arr.queryPoolSize = 64;
    arr.deadlineCycles = deadline;
    arr.seed = seed;
    return ArrivalGenerator(arr, algo, dataset).generate(count);
}

/** The one shard's counters (a single-GPU server has no others). */
const ShardReport &
only(const ClusterReport &rep)
{
    EXPECT_EQ(rep.shards.size(), 1u);
    return rep.shards.front();
}

void
expectSameReport(const ClusterReport &a, const ClusterReport &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(only(a).shedAdmission, only(b).shedAdmission);
    EXPECT_EQ(only(a).shedExpired, only(b).shedExpired);
    EXPECT_EQ(only(a).degraded, only(b).degraded);
    EXPECT_EQ(only(a).batches, only(b).batches);
    EXPECT_EQ(a.lastCompletionCycle, b.lastCompletionCycle);
    EXPECT_EQ(a.latencyCycles.count(), b.latencyCycles.count());
    EXPECT_DOUBLE_EQ(a.latencyCycles.max(), b.latencyCycles.max());
    EXPECT_DOUBLE_EQ(a.latencyCycles.sum(), b.latencyCycles.sum());
    for (const double p : {50.0, 95.0, 99.0}) {
        EXPECT_DOUBLE_EQ(a.latencyCycles.percentile(p),
                         b.latencyCycles.percentile(p));
    }
}

TEST(Server, RequestConservation)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 5.0e-5, 96);
    ClusterServer server(Algo::Btree, DatasetId::BTree10k, smallConfig());
    const ClusterReport rep = server.run(reqs);

    const ShardReport &shard = only(rep);
    EXPECT_EQ(rep.offered, 96u);
    EXPECT_EQ(rep.completed + shard.shedAdmission + shard.shedExpired,
              rep.offered);
    EXPECT_EQ(rep.latencyCycles.count(), rep.completed);
    EXPECT_EQ(rep.queueWaitCycles.count() + shard.shedAdmission +
                  shard.shedExpired,
              rep.offered);
    EXPECT_GT(shard.batches, 0u);
    EXPECT_GT(rep.lastCompletionCycle, 0u);
    // Every served request's latency covers at least the launch
    // overhead plus one kernel cycle.
    EXPECT_GT(rep.latencyCycles.min(),
              static_cast<double>(smallConfig().launchOverheadCycles));
}

TEST(Server, BitIdenticalAcrossJobs)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 64);
    ClusterConfig cfg = smallConfig(2);
    cfg.jobs = 1;
    ClusterServer serial(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep1 = serial.run(reqs);
    cfg.jobs = 4;
    ClusterServer parallel(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep4 = parallel.run(reqs);
    expectSameReport(rep1, rep4);

    // And across repeated runs of the same server.
    const ClusterReport again = parallel.run(reqs);
    expectSameReport(rep4, again);
}

TEST(Server, OverloadShedsAtHighWater)
{
    // Arrivals far faster than service; tiny shed threshold.
    ClusterConfig cfg = smallConfig(1);
    cfg.pipeline.degrade.shedWater = 16;
    cfg.pipeline.degrade.highWater = 8;
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-2, 128);
    ClusterServer server(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep = server.run(reqs);

    EXPECT_GT(only(rep).shedAdmission, 0u);
    EXPECT_EQ(rep.completed + only(rep).shedAdmission +
                  only(rep).shedExpired,
              rep.offered);
    // The queue bound keeps batches full once saturated.
    EXPECT_GT(rep.batchSize.max(), 0.0);
    EXPECT_LE(rep.batchSize.max(),
              static_cast<double>(cfg.pipeline.batch.maxBatch));
}

TEST(Server, DeadlineShedsExpiredRequests)
{
    // Overload + a deadline shorter than the queueing delay: requests
    // expire in queue and are dropped at batch formation.
    ClusterConfig cfg = smallConfig(1);
    cfg.pipeline.degrade.shedWater = 1'000'000; // admission never sheds
    const auto reqs = stream(Algo::Btree, DatasetId::BTree10k, 1.0e-2,
                             128, /*deadline=*/5'000);
    ClusterServer server(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep = server.run(reqs);

    EXPECT_GT(only(rep).shedExpired, 0u);
    EXPECT_EQ(rep.completed + only(rep).shedExpired +
                  only(rep).shedAdmission,
              rep.offered);
}

TEST(Server, GgnnDegradesUnderPressure)
{
    ClusterConfig cfg = smallConfig(1);
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.shedWater = 1'000'000;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    const auto reqs =
        stream(Algo::Ggnn, DatasetId::Sift10k, 5.0e-3, 48);
    ClusterServer server(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const ClusterReport rep = server.run(reqs);

    EXPECT_GT(only(rep).degraded, 0u);
    EXPECT_EQ(rep.completed, rep.offered); // degraded, not dropped
}

TEST(Server, SaturationRaisesTailLatency)
{
    // Open-loop sanity: a saturating stream's p99 dominates a light
    // stream's. (Light load is NOT latency-free: a lone request pays
    // up to maxWaitCycles of batching delay — so the heavy stream must
    // queue well past that to dominate, which 256 back-to-back
    // requests on two instances guarantee.)
    ClusterConfig cfg = smallConfig(2);
    ClusterServer server(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport light = server.run(
        stream(Algo::Btree, DatasetId::BTree10k, 2.0e-6, 64));
    const ClusterReport heavy = server.run(
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-1, 512));
    EXPECT_GT(heavy.latencyCycles.percentile(99.0),
              light.latencyCycles.percentile(99.0));
    // Light load's p99 is bounded by batching wait + service, not by
    // queueing: it must stay under maxWait + a small service allowance.
    EXPECT_LT(light.latencyCycles.percentile(99.0),
              static_cast<double>(cfg.pipeline.batch.maxWaitCycles) + 50'000.0);
}

} // namespace
} // namespace hsu::shard
