/**
 * @file
 * Schedule recording on the real serving loop: logs recorded by a
 * single-GPU server (the serving engine as one shard with two GPU
 * instances) lint clean under every SV/CH rule, attaching the
 * recorder does not perturb the served results, and the recorded log
 * is bit-identical across simulation thread counts (recording happens
 * only on the event-loop thread).
 */

#include <gtest/gtest.h>

#include "analysis/schedule_lint.hh"
#include "shard/cluster.hh"

namespace hsu::serve
{
namespace
{

shard::ClusterConfig
smallConfig()
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.partition = shard::PartitionPolicy::Hash; // keys all on shard 0
    cfg.numShards = 1;
    cfg.instancesPerReplica = 2;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    return cfg;
}

std::vector<Request>
stream(Algo algo, DatasetId dataset, double rate_per_cycle,
       std::size_t count, Cycle deadline = 0)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate_per_cycle;
    arr.queryPoolSize = 64;
    arr.deadlineCycles = deadline;
    arr.queryDist = QueryDist::Zipf; // repeats exercise the cache
    arr.seed = 21;
    return ArrivalGenerator(arr, algo, dataset).generate(count);
}

void
expectSameReport(const shard::ClusterReport &a,
                 const shard::ClusterReport &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    ASSERT_EQ(a.shards.size(), 1u);
    ASSERT_EQ(b.shards.size(), 1u);
    EXPECT_EQ(a.shards[0].shedAdmission, b.shards[0].shedAdmission);
    EXPECT_EQ(a.shards[0].shedExpired, b.shards[0].shedExpired);
    EXPECT_EQ(a.shards[0].degraded, b.shards[0].degraded);
    EXPECT_EQ(a.shards[0].batches, b.shards[0].batches);
    EXPECT_EQ(a.lastCompletionCycle, b.lastCompletionCycle);
    EXPECT_DOUBLE_EQ(a.latencyCycles.sum(), b.latencyCycles.sum());
}

void
expectSameLog(const ScheduleLog &a, const ScheduleLog &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const ScheduleEvent &x = a.events[i];
        const ScheduleEvent &y = b.events[i];
        EXPECT_EQ(x.cycle, y.cycle) << "event " << i;
        EXPECT_EQ(x.a, y.a) << "event " << i;
        EXPECT_EQ(x.b, y.b) << "event " << i;
        EXPECT_EQ(x.c, y.c) << "event " << i;
        EXPECT_EQ(x.lane, y.lane) << "event " << i;
        EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind))
            << "event " << i;
    }
}

TEST(ScheduleLog, ServerLogLintsCleanAcrossPolicies)
{
    // Tight watermarks + deadlines: the log must contain queued, shed,
    // expired, and degraded decisions and still satisfy every rule.
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 2.0e-3, 96, 200'000);
    for (const BatchPolicyKind policy :
         {BatchPolicyKind::Fifo, BatchPolicyKind::Coherent}) {
        for (const bool cached : {false, true}) {
            shard::ClusterConfig cfg = smallConfig();
            cfg.pipeline.policy = policy;
            cfg.pipeline.degrade.highWater = 8;
            cfg.pipeline.degrade.shedWater = 24;
            if (cached) {
                cfg.pipeline.cache.capacity = 8;
                cfg.pipeline.cache.mode = CacheMode::Tolerant;
            }
            ScheduleLog log;
            cfg.scheduleLog = &log;
            shard::ClusterServer server(Algo::Btree,
                                        DatasetId::BTree10k, cfg);
            server.run(reqs);

            EXPECT_GT(log.events.size(), reqs.size());
            const LintReport report = lintScheduleLog(log);
            EXPECT_TRUE(report.clean())
                << toString(policy) << (cached ? "/cache" : "")
                << ":\n"
                << report.str();
        }
    }
}

TEST(ScheduleLog, RecorderDoesNotPerturbServing)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 64);
    shard::ClusterConfig cfg = smallConfig();
    cfg.pipeline.cache.capacity = 8;
    cfg.pipeline.cache.mode = CacheMode::Tolerant;
    shard::ClusterServer plain(Algo::Btree, DatasetId::BTree10k, cfg);
    const shard::ClusterReport without = plain.run(reqs);

    ScheduleLog log;
    cfg.scheduleLog = &log;
    shard::ClusterServer recorded(Algo::Btree, DatasetId::BTree10k,
                                  cfg);
    const shard::ClusterReport with = recorded.run(reqs);

    expectSameReport(without, with);
    EXPECT_FALSE(log.events.empty());
}

TEST(ScheduleLog, LogBitIdenticalAcrossJobs)
{
    // Recording happens only on the event-loop thread, so the log —
    // not just the report — must not depend on the pool width.
    const auto reqs =
        stream(Algo::Ggnn, DatasetId::Sift10k, 1.0e-3, 48);
    shard::ClusterConfig cfg = smallConfig();
    cfg.pipeline.cache.capacity = 8;
    cfg.pipeline.cache.mode = CacheMode::Tolerant;
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};

    ScheduleLog serialLog;
    cfg.jobs = 1;
    cfg.scheduleLog = &serialLog;
    shard::ClusterServer serial(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const shard::ClusterReport rep1 = serial.run(reqs);

    ScheduleLog parallelLog;
    cfg.jobs = 4;
    cfg.scheduleLog = &parallelLog;
    shard::ClusterServer parallel(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const shard::ClusterReport rep4 = parallel.run(reqs);

    expectSameReport(rep1, rep4);
    expectSameLog(serialLog, parallelLog);
    EXPECT_TRUE(lintScheduleLog(parallelLog).clean())
        << lintScheduleLog(parallelLog).str();
}

} // namespace
} // namespace hsu::serve
