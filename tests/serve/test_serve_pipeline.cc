/**
 * @file
 * Scheduling-pipeline contracts.
 *
 * The composed pipeline (admission -> FIFO batcher -> degradation ->
 * ordering policy) must reproduce the original event loops EXACTLY
 * under the Fifo policy with the cache disabled. The golden reports
 * below were captured from the original single-GPU server and
 * sharded cluster (hexfloat doubles pin the order-sensitive histogram
 * sums, not just the counters); the single-GPU ones now run as a
 * 1-shard cluster with k instances and must still match. Any
 * scheduling change that shifts them is a regression, not noise.
 *
 * The Coherent policy's contracts are weaker by design — it reorders
 * WITHIN batches only, so batch membership, admission accounting, and
 * bit-identity across HSU_JOBS must all survive, while service times
 * may legitimately differ.
 */

#include <gtest/gtest.h>

#include "serve/pipeline.hh"
#include "serve/policy.hh"
#include "shard/cluster.hh"

namespace hsu::serve
{
namespace
{

std::vector<Request>
mkStream(Algo algo, DatasetId ds, double rate, std::size_t n,
         Cycle deadline, std::uint64_t seed)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate;
    arr.queryPoolSize = 64;
    arr.deadlineCycles = deadline;
    arr.seed = seed;
    return ArrivalGenerator(arr, algo, ds).generate(n);
}

/** A single-GPU server: one shard (Hash, so every key reaches it),
 *  one replica, @p instances GPUs, zero-cost link. */
shard::ClusterConfig
singleGpuConfig(unsigned instances)
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.partition = shard::PartitionPolicy::Hash;
    cfg.numShards = 1;
    cfg.instancesPerReplica = instances;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    return cfg;
}

/** The one shard's counters of a single-GPU server run. */
const shard::ShardReport &
only(const shard::ClusterReport &rep)
{
    EXPECT_EQ(rep.shards.size(), 1u);
    return rep.shards.front();
}

// Case A of the pre-refactor capture: B+tree, 2 instances, light
// overload, no deadlines, no degradation.
TEST(Pipeline, GoldenFifoBtreeServer)
{
    shard::ClusterServer server(Algo::Btree, DatasetId::BTree10k,
                                singleGpuConfig(2));
    const shard::ClusterReport r = server.run(
        mkStream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 96, 0, 21));

    EXPECT_EQ(r.offered, 96u);
    EXPECT_EQ(r.offered - only(r).shedAdmission, 96u); // admitted
    EXPECT_EQ(r.completed, 96u);
    EXPECT_EQ(only(r).shedAdmission, 0u);
    EXPECT_EQ(only(r).shedExpired, 0u);
    EXPECT_EQ(only(r).degraded, 0u);
    EXPECT_EQ(only(r).batches, 30u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.lastCompletionCycle, 928'629u);
    EXPECT_EQ(r.latencyCycles.count(), 96u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.4bbfcp+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.5798p+14);
    EXPECT_EQ(r.queueWaitCycles.count(), 96u);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.22d27p+20);
    EXPECT_EQ(r.batchSize.count(), 30u);
    EXPECT_EQ(r.batchSize.sum(), 0x1.8p+6);
}

// Case B: GGNN under pressure — admission shedding and degraded
// knobs, long deadline (never expires).
TEST(Pipeline, GoldenFifoGgnnDegradedServer)
{
    shard::ClusterConfig cfg = singleGpuConfig(1);
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.shedWater = 24;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    shard::ClusterServer server(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const shard::ClusterReport r = server.run(mkStream(
        Algo::Ggnn, DatasetId::Sift10k, 5.0e-3, 48, 3'000'000, 9));

    EXPECT_EQ(r.offered, 48u);
    EXPECT_EQ(r.offered - only(r).shedAdmission, 32u); // admitted
    EXPECT_EQ(r.completed, 32u);
    EXPECT_EQ(only(r).shedAdmission, 16u);
    EXPECT_EQ(only(r).shedExpired, 0u);
    EXPECT_EQ(only(r).degraded, 32u);
    EXPECT_EQ(only(r).batches, 4u);
    EXPECT_EQ(r.lastCompletionCycle, 90'056u);
    EXPECT_EQ(r.latencyCycles.count(), 32u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.a5803p+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.4f87p+16);
    EXPECT_EQ(r.queueWaitCycles.count(), 32u);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.f1ae6p+19);
    EXPECT_EQ(r.batchSize.count(), 4u);
    EXPECT_EQ(r.batchSize.sum(), 0x1p+5);
}

// Case B2: same pressure with a tight deadline — queued requests
// expire at batch formation.
TEST(Pipeline, GoldenFifoDeadlineExpiryServer)
{
    shard::ClusterConfig cfg = singleGpuConfig(1);
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.shedWater = 24;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    shard::ClusterServer server(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const shard::ClusterReport r = server.run(
        mkStream(Algo::Ggnn, DatasetId::Sift10k, 5.0e-3, 48, 60'000,
                 9));

    EXPECT_EQ(r.offered, 48u);
    EXPECT_EQ(r.offered - only(r).shedAdmission, 32u); // admitted
    EXPECT_EQ(r.completed, 24u);
    EXPECT_EQ(only(r).shedAdmission, 16u);
    EXPECT_EQ(only(r).shedExpired, 8u);
    EXPECT_EQ(only(r).degraded, 24u);
    EXPECT_EQ(only(r).batches, 3u);
    EXPECT_EQ(r.lastCompletionCycle, 68'699u);
    EXPECT_EQ(r.latencyCycles.count(), 24u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.fe42cp+19);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.0051p+16);
    EXPECT_EQ(r.queueWaitCycles.count(), 24u);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.f0bb8p+18);
    EXPECT_EQ(r.batchSize.count(), 3u);
    EXPECT_EQ(r.batchSize.sum(), 0x1.8p+4);
}

// Case C: the original 1x1 zero-link cluster (Spatial partition, one
// instance) must match the golden numbers of the one-instance server.
TEST(Pipeline, GoldenFifoOneByOneCluster)
{
    const auto reqs =
        mkStream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 96, 0, 21);

    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    shard::ClusterServer cluster(Algo::Btree, DatasetId::BTree10k,
                                 cfg);
    const shard::ClusterReport r = cluster.run(reqs);

    EXPECT_EQ(r.offered, 96u);
    EXPECT_EQ(r.completed, 96u);
    EXPECT_EQ(r.partialAnswers, 0u);
    EXPECT_EQ(r.shedRequests, 0u);
    EXPECT_EQ(r.subqueries, 96u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.lastCompletionCycle, 928'629u);
    EXPECT_EQ(r.latencyCycles.count(), 96u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.4bbfcp+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.5798p+14);
    ASSERT_EQ(r.shards.size(), 1u);
    EXPECT_EQ(r.shards[0].subqueries, 96u);
    EXPECT_EQ(r.shards[0].batches, 30u);
    EXPECT_EQ(r.shards[0].shedAdmission, 0u);
    EXPECT_EQ(r.shards[0].shedExpired, 0u);
    EXPECT_EQ(r.shards[0].degraded, 0u);
    EXPECT_EQ(r.shards[0].queueWaitCycles.sum(), 0x1.22d27p+20);
}

// Case D: a 2-shard cluster with a real link and merge cost — pins
// the scatter/gather/join path through the refactored lanes.
TEST(Pipeline, GoldenFifoTwoShardCluster)
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numShards = 2;
    cfg.replicasPerShard = 1;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    cfg.link.latencyCycles = 500;
    cfg.mergeCyclesPerShard = 100;
    shard::ClusterServer cluster(Algo::Bvhnn, DatasetId::Random10k,
                                 cfg);
    const shard::ClusterReport r = cluster.run(mkStream(
        Algo::Bvhnn, DatasetId::Random10k, 5.0e-5, 64, 0, 21));

    EXPECT_EQ(r.offered, 64u);
    EXPECT_EQ(r.completed, 64u);
    EXPECT_EQ(r.partialAnswers, 0u);
    EXPECT_EQ(r.shedRequests, 0u);
    EXPECT_EQ(r.subqueries, 68u);
    EXPECT_EQ(r.lastCompletionCycle, 1'218'651u);
    EXPECT_EQ(r.latencyCycles.count(), 64u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.ad264p+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.2d86p+15);
    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].subqueries, 40u);
    EXPECT_EQ(r.shards[0].batches, 24u);
    EXPECT_EQ(r.shards[0].queueWaitCycles.sum(), 0x1.381dep+19);
    EXPECT_EQ(r.shards[1].subqueries, 28u);
    EXPECT_EQ(r.shards[1].batches, 18u);
    EXPECT_EQ(r.shards[1].queueWaitCycles.sum(), 0x1.bbf48p+18);
}

TEST(Pipeline, OrderBatchSortsByCoherenceKey)
{
    constexpr std::size_t kPool = 64;
    const std::vector<std::uint64_t> &keys =
        serveQueryCoherenceKeys(DatasetId::Random10k, kPool);

    std::vector<Request> batch;
    for (const std::uint32_t q : {17u, 3u, 63u, 0u, 42u, 3u}) {
        Request r;
        r.id = batch.size();
        r.queryId = q;
        batch.push_back(r);
    }
    std::vector<Request> fifo = batch;
    orderBatch(BatchPolicyKind::Fifo, DatasetId::Random10k, kPool,
               fifo);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(fifo[i].id, batch[i].id); // Fifo never reorders

    orderBatch(BatchPolicyKind::Coherent, DatasetId::Random10k, kPool,
               batch);
    ASSERT_EQ(batch.size(), 6u);
    for (std::size_t i = 1; i < batch.size(); ++i) {
        const std::uint64_t ka = keys[batch[i - 1].queryId];
        const std::uint64_t kb = keys[batch[i].queryId];
        EXPECT_LE(ka, kb);
        if (ka == kb) // equal keys break ties by stream id
            EXPECT_LT(batch[i - 1].id, batch[i].id);
    }
}

TEST(Pipeline, CoherentPreservesMembershipAndAccounting)
{
    // Ordering policies only permute WITHIN batches: with shedding
    // disabled and no deadlines, admission and completion accounting
    // are policy-independent even under load.
    const auto reqs = mkStream(Algo::Bvhnn, DatasetId::Random10k,
                               2.0e-3, 96, 0, 5);
    shard::ClusterConfig cfg = singleGpuConfig(1);
    const shard::ClusterReport fifo =
        shard::ClusterServer(Algo::Bvhnn, DatasetId::Random10k, cfg)
            .run(reqs);
    cfg.pipeline.policy = BatchPolicyKind::Coherent;
    const shard::ClusterReport coh =
        shard::ClusterServer(Algo::Bvhnn, DatasetId::Random10k, cfg)
            .run(reqs);

    EXPECT_EQ(coh.offered, fifo.offered);
    EXPECT_EQ(only(coh).shedAdmission, only(fifo).shedAdmission);
    EXPECT_EQ(coh.completed, fifo.completed);
    EXPECT_EQ(only(coh).shedAdmission, 0u);
    EXPECT_EQ(only(coh).shedExpired, 0u);
    EXPECT_GT(only(coh).batches, 0u);
}

TEST(Pipeline, CoherentBitIdenticalAcrossJobs)
{
    const auto reqs = mkStream(Algo::Flann, DatasetId::Bunny, 1.0e-3,
                               64, 0, 21);
    shard::ClusterConfig cfg = singleGpuConfig(2);
    cfg.pipeline.policy = BatchPolicyKind::Coherent;

    cfg.jobs = 1;
    const shard::ClusterReport rep1 =
        shard::ClusterServer(Algo::Flann, DatasetId::Bunny, cfg)
            .run(reqs);
    cfg.jobs = 4;
    shard::ClusterServer parallel(Algo::Flann, DatasetId::Bunny, cfg);
    const shard::ClusterReport rep4 = parallel.run(reqs);
    const shard::ClusterReport again = parallel.run(reqs);

    for (const shard::ClusterReport *r : {&rep4, &again}) {
        EXPECT_EQ(rep1.completed, r->completed);
        EXPECT_EQ(only(rep1).batches, only(*r).batches);
        EXPECT_EQ(rep1.lastCompletionCycle, r->lastCompletionCycle);
        EXPECT_EQ(rep1.latencyCycles.sum(), r->latencyCycles.sum());
        EXPECT_EQ(rep1.queueWaitCycles.sum(),
                  r->queueWaitCycles.sum());
        EXPECT_EQ(rep1.kernelCycles, r->kernelCycles);
        EXPECT_EQ(rep1.l1Accesses, r->l1Accesses);
        EXPECT_EQ(rep1.l1Misses, r->l1Misses);
        EXPECT_EQ(rep1.rtuBusyCycles, r->rtuBusyCycles);
    }
}

TEST(Pipeline, ReportsMemorySystemTotals)
{
    shard::ClusterServer server(Algo::Btree, DatasetId::BTree10k,
                                singleGpuConfig(1));
    const shard::ClusterReport r = server.run(
        mkStream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 32, 0, 7));
    EXPECT_GT(r.kernelCycles, 0u);
    EXPECT_EQ(r.smCycles, r.kernelCycles * 2); // numSms == 2
    EXPECT_GT(r.l1Accesses, 0.0);
    EXPECT_GE(r.l1Misses, 0.0);
    EXPECT_GT(r.l1HitRate(), 0.0);
    EXPECT_LE(r.l1HitRate(), 1.0);
    // The HSU config keeps the RT unit busy; residency is a fraction.
    EXPECT_GT(r.rtuBusyCycles, 0.0);
    EXPECT_GT(r.warpBufferResidency(), 0.0);
    EXPECT_LE(r.warpBufferResidency(), 1.0);
}

} // namespace
} // namespace hsu::serve
