/**
 * @file
 * Answer-cache semantics: deterministic LRU replacement, exact vs
 * recall-tolerant hit keys (B+tree always exact), and the serving
 * integration on a single-GPU server (the router's cache in front of
 * one shard) — hits complete in the hit latency, bypass the queue,
 * and the accounting still balances, bit-identically across HSU_JOBS.
 */

#include <gtest/gtest.h>

#include "serve/cache.hh"
#include "shard/cluster.hh"

namespace hsu::serve
{
namespace
{

constexpr std::uint32_t kPool = 64;

TEST(AnswerCache, LruEvictsLeastRecentlyUsed)
{
    AnswerCacheConfig cfg;
    cfg.capacity = 2;
    AnswerCache cache(cfg, Algo::Btree, DatasetId::BTree10k, kPool);

    EXPECT_FALSE(cache.lookup(1));
    cache.insert(1);
    cache.insert(2);
    EXPECT_TRUE(cache.lookup(1)); // 1 becomes most-recent
    cache.insert(3);              // evicts 2, the LRU entry
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.insertions(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(AnswerCache, ReinsertOnlyRefreshesRecency)
{
    AnswerCacheConfig cfg;
    cfg.capacity = 2;
    AnswerCache cache(cfg, Algo::Btree, DatasetId::BTree10k, kPool);
    cache.insert(1);
    cache.insert(2);
    cache.insert(1); // refresh, not a new entry
    EXPECT_EQ(cache.insertions(), 2u);
    cache.insert(3); // now 2 is LRU and goes
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(1));
}

TEST(AnswerCache, DisabledCacheNeverHitsOrCounts)
{
    AnswerCache cache(AnswerCacheConfig{}, Algo::Btree,
                      DatasetId::BTree10k, kPool);
    cache.insert(1);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCache, TolerantCollapsesMortonCells)
{
    // Tolerance past the full 63-bit code puts every point query in
    // one cell: any answered query serves every other.
    AnswerCacheConfig cfg;
    cfg.capacity = 8;
    cfg.mode = CacheMode::Tolerant;
    cfg.toleranceLevels = 21;
    AnswerCache cache(cfg, Algo::Bvhnn, DatasetId::Random10k, kPool);
    cache.insert(0);
    EXPECT_TRUE(cache.lookup(63));

    // Zero tolerance keeps full Morton codes: two queries with
    // different codes never alias.
    const std::vector<std::uint64_t> &keys =
        serveQueryCoherenceKeys(DatasetId::Random10k, kPool);
    std::uint32_t other = 1;
    while (other < kPool && keys[other] == keys[0])
        ++other;
    ASSERT_LT(other, kPool); // a 64-query pool has distinct codes
    AnswerCacheConfig exact_cells = cfg;
    exact_cells.toleranceLevels = 0;
    AnswerCache strict(exact_cells, Algo::Bvhnn, DatasetId::Random10k,
                       kPool);
    strict.insert(0);
    EXPECT_FALSE(strict.lookup(other));
}

TEST(AnswerCache, BtreeIsAlwaysExact)
{
    // Key lookups return exact values; tolerance must never apply.
    AnswerCacheConfig cfg;
    cfg.capacity = 8;
    cfg.mode = CacheMode::Tolerant;
    cfg.toleranceLevels = 21;
    AnswerCache cache(cfg, Algo::Btree, DatasetId::BTree10k, kPool);
    cache.insert(0);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(0));
}

shard::ClusterConfig
cachedConfig()
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.partition = shard::PartitionPolicy::Hash; // keys all on shard 0
    cfg.numShards = 1;
    cfg.instancesPerReplica = 1;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.pipeline.cache.capacity = 16;
    cfg.queryPoolSize = kPool;
    return cfg;
}

std::vector<Request>
zipfStream(std::size_t n, std::uint64_t seed,
           QueryDist dist = QueryDist::Zipf)
{
    ArrivalConfig arr;
    arr.ratePerCycle = 1.0e-4;
    arr.queryPoolSize = kPool;
    arr.queryDist = dist;
    arr.zipfExponent = 1.2;
    arr.seed = seed;
    return ArrivalGenerator(arr, Algo::Btree, DatasetId::BTree10k)
        .generate(n);
}

TEST(AnswerCache, ServerHitsBypassTheQueue)
{
    const auto reqs = zipfStream(128, 33);
    shard::ClusterServer server(Algo::Btree, DatasetId::BTree10k,
                                cachedConfig());
    const shard::ClusterReport rep = server.run(reqs);
    ASSERT_EQ(rep.shards.size(), 1u);
    const shard::ShardReport &lane = rep.shards[0];

    EXPECT_GT(rep.cacheHits, 0u);
    EXPECT_GT(rep.cacheHitRate(), 0.0);
    // Conservation: every request completes or is shed; hits complete
    // without ever occupying a queue slot.
    EXPECT_EQ(rep.completed + lane.shedAdmission + lane.shedExpired,
              rep.offered);
    EXPECT_EQ(rep.queueWaitCycles.count() + rep.cacheHits +
                  lane.shedAdmission + lane.shedExpired,
              rep.offered);
    // A hit's latency is exactly the configured lookup cost — far
    // below any queued request's batching wait.
    EXPECT_EQ(rep.latencyCycles.min(),
              static_cast<double>(
                  cachedConfig().pipeline.cache.hitLatencyCycles));
}

TEST(AnswerCache, ServerCacheDeterministicAcrossJobs)
{
    const auto reqs = zipfStream(96, 5);
    shard::ClusterConfig cfg = cachedConfig();
    cfg.jobs = 1;
    const shard::ClusterReport rep1 =
        shard::ClusterServer(Algo::Btree, DatasetId::BTree10k, cfg)
            .run(reqs);
    cfg.jobs = 4;
    shard::ClusterServer parallel(Algo::Btree, DatasetId::BTree10k, cfg);
    const shard::ClusterReport rep4 = parallel.run(reqs);
    const shard::ClusterReport again = parallel.run(reqs);
    for (const shard::ClusterReport *r : {&rep4, &again}) {
        EXPECT_EQ(rep1.cacheHits, r->cacheHits);
        EXPECT_EQ(rep1.completed, r->completed);
        EXPECT_EQ(rep1.shardSum(&shard::ShardReport::batches),
                  r->shardSum(&shard::ShardReport::batches));
        EXPECT_EQ(rep1.lastCompletionCycle, r->lastCompletionCycle);
        EXPECT_EQ(rep1.latencyCycles.sum(), r->latencyCycles.sum());
    }
}

TEST(AnswerCache, ZipfStreamBeatsUniformHitRate)
{
    // The cache earns its keep on skewed traffic: the same server
    // under a Zipf stream must hit strictly more often than under a
    // uniform stream of the same length.
    shard::ClusterServer server(Algo::Btree, DatasetId::BTree10k,
                                cachedConfig());
    const shard::ClusterReport zipf = server.run(zipfStream(192, 11));
    const shard::ClusterReport uniform =
        server.run(zipfStream(192, 11, QueryDist::Uniform));
    EXPECT_GT(zipf.cacheHitRate(), uniform.cacheHitRate());
}

} // namespace
} // namespace hsu::serve
