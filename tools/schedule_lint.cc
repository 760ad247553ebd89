/**
 * @file
 * schedule_lint: replay golden serving workloads with schedule
 * recording on and run the schedule auditor (analysis/schedule_lint)
 * over the recorded event logs of shard::ClusterServer runs — single-
 * shard servers and 2x2 clusters, SV+SH+CH rules — plus the SH
 * fixed-function sweeps: partition disjointness/coverage for every
 * (family, policy, N) and merge total-order over real sharded answers.
 *
 * Exit status: 0 when every workload lints clean of errors, 1
 * otherwise (warnings are printed but non-fatal). `--rules` prints the
 * SV/SH/CH rule catalog. CI runs `schedule_lint --quick` in the lint
 * job and the full sweep in the audit job.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/schedule_lint.hh"
#include "common/argparse.hh"
#include "shard/answers.hh"
#include "shard/cluster.hh"

namespace
{

using namespace hsu;

struct GoldenWorkload
{
    const char *name;
    Algo algo;
    DatasetId dataset;
};

/** The four golden serving workloads, one per kernel family. */
constexpr GoldenWorkload kGolden[] = {
    {"ggnn-sift10k", Algo::Ggnn, DatasetId::Sift10k},
    {"flann-bunny", Algo::Flann, DatasetId::Bunny},
    {"bvhnn-random10k", Algo::Bvhnn, DatasetId::Random10k},
    {"btree-btree10k", Algo::Btree, DatasetId::BTree10k},
};

constexpr std::uint32_t kPool = 64;

std::vector<serve::Request>
stream(Algo algo, DatasetId dataset, double rate_per_cycle,
       std::size_t count, Cycle deadline)
{
    serve::ArrivalConfig arr;
    arr.ratePerCycle = rate_per_cycle;
    arr.queryPoolSize = kPool;
    arr.deadlineCycles = deadline;
    arr.queryDist = serve::QueryDist::Zipf; // repeats exercise the cache
    arr.seed = 21;
    return serve::ArrivalGenerator(arr, algo, dataset).generate(count);
}

/** Tally + print one linted workload; returns the report's counts. */
std::pair<std::size_t, std::size_t>
show(const std::string &name, const LintReport &report,
     std::size_t events)
{
    std::printf("%-34s %8zu events: %s\n", name.c_str(), events,
                report.clean()
                    ? "clean"
                    : (report.errorCount() ? "FAIL" : "warnings"));
    if (!report.clean())
        std::fputs(report.str().c_str(), stdout);
    return {report.errorCount(), report.warningCount()};
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("schedule_lint",
                   "schedule auditor over recorded serve/shard/cache "
                   "event logs (SV/SH/CH rule families)");
    bool quick = false;
    bool rules = false;
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "smaller request streams and shard sweep (CI smoke)");
    args.flag(rules, "rules", "print the rule catalog and exit");
    if (!args.parse(argc, argv))
        return args.exitCode();

    if (rules) {
        std::printf("%-6s %-8s %s\n", "RULE", "SEVERITY", "SUMMARY");
        for (const LintRuleInfo &rule : scheduleLintRuleCatalog()) {
            std::printf("%-6s %-8s %s\n       fix: %s\n",
                        rule.id.c_str(),
                        rule.severity == LintSeverity::Error
                            ? "error"
                            : "warning",
                        rule.summary.c_str(), rule.fixit.c_str());
        }
        return 0;
    }

    const std::size_t nreq = quick ? 48 : 160;
    std::size_t errors = 0, warnings = 0;
    std::size_t workloads = 0;
    auto tally = [&](std::pair<std::size_t, std::size_t> counts) {
        errors += counts.first;
        warnings += counts.second;
        workloads += 1;
    };

    // --- Single-shard schedules (one replica, two instances, Hash so
    // every key reaches the shard): every golden workload under both
    // ordering policies, with the answer cache off and on. Overload
    // watermarks and deadlines are tight so the log really contains
    // shed / degrade / expiry decisions for the SV rules to audit.
    for (const GoldenWorkload &w : kGolden) {
        for (const serve::BatchPolicyKind policy :
             {serve::BatchPolicyKind::Fifo,
              serve::BatchPolicyKind::Coherent}) {
            for (const bool cached : {false, true}) {
                shard::ClusterConfig cfg;
                cfg.gpu.numSms = 2;
                cfg.gpu.finalize();
                cfg.partition = shard::PartitionPolicy::Hash;
                cfg.numShards = 1;
                cfg.instancesPerReplica = 2;
                cfg.queryPoolSize = kPool;
                cfg.pipeline.batch.maxBatch = 8;
                cfg.pipeline.batch.maxWaitCycles = 20'000;
                cfg.pipeline.policy = policy;
                cfg.pipeline.degrade.highWater = 8;
                cfg.pipeline.degrade.shedWater = 24;
                if (cached) {
                    cfg.pipeline.cache.capacity = 8;
                    cfg.pipeline.cache.mode =
                        serve::CacheMode::Tolerant;
                }
                ScheduleLog log;
                cfg.scheduleLog = &log;
                shard::ClusterServer server(w.algo, w.dataset, cfg);
                server.run(stream(w.algo, w.dataset, 2.0e-4, nreq,
                                  400'000));
                const std::string name =
                    std::string("serve/") + w.name + "/" +
                    serve::toString(policy) +
                    (cached ? "/cache" : "/nocache");
                tally(show(name, lintScheduleLog(log),
                           log.events.size()));
            }
        }
    }

    // --- Cluster schedules: both partition policies over a 2x2
    // cluster with a real link and merge cost, router cache on, so the
    // SH scatter/gather/join rules and the router-side CH rules see a
    // populated log.
    for (const GoldenWorkload &w : kGolden) {
        for (const shard::PartitionPolicy policy :
             {shard::PartitionPolicy::Spatial,
              shard::PartitionPolicy::Hash}) {
            shard::ClusterConfig cfg;
            cfg.gpu.numSms = 2;
            cfg.gpu.finalize();
            cfg.partition = policy;
            cfg.numShards = 2;
            cfg.replicasPerShard = 2;
            cfg.queryPoolSize = kPool;
            cfg.pipeline.batch.maxBatch = 8;
            cfg.pipeline.batch.maxWaitCycles = 20'000;
            cfg.pipeline.policy = serve::BatchPolicyKind::Coherent;
            cfg.pipeline.degrade.highWater = 8;
            cfg.pipeline.degrade.shedWater = 24;
            cfg.pipeline.cache.capacity = 8;
            cfg.link.latencyCycles = 500;
            cfg.link.bytesPerCycle = 16.0;
            cfg.mergeCyclesPerShard = 200;
            ScheduleLog log;
            cfg.scheduleLog = &log;
            shard::ClusterServer cluster(w.algo, w.dataset, cfg);
            cluster.run(stream(w.algo, w.dataset, 2.0e-4, nreq,
                               400'000));
            const std::string name =
                std::string("cluster/") + w.name + "/" +
                toString(policy);
            tally(show(name, lintScheduleLog(log),
                       log.events.size()));
        }
    }

    // --- SH001: partition disjointness + coverage for every golden
    // dataset x policy x shard count.
    const std::vector<unsigned> shardCounts =
        quick ? std::vector<unsigned>{1, 4}
              : std::vector<unsigned>{1, 2, 4, 8};
    for (const GoldenWorkload &w : kGolden) {
        for (const shard::PartitionPolicy policy :
             {shard::PartitionPolicy::Spatial,
              shard::PartitionPolicy::Hash}) {
            for (const unsigned n : shardCounts) {
                const shard::Partitioning part =
                    shard::partitionDataset(w.dataset, policy, n);
                std::vector<std::vector<std::uint32_t>> ids;
                ids.reserve(part.shards.size());
                for (const shard::ShardSlice &slice : part.shards)
                    ids.push_back(slice.ids);
                const std::string name =
                    std::string("partition/") + w.name + "/" +
                    toString(policy) + "/n" + std::to_string(n);
                tally(show(name,
                           lintPartitionCoverage(
                               ids, part.totalElements()),
                           part.totalElements()));
            }
        }
    }

    // --- SH002: merge total-order over real sharded top-k answers
    // (the GGNN family materializes merged candidate lists).
    {
        std::vector<std::uint32_t> qids;
        for (std::uint32_t q = 0; q < (quick ? 8u : 24u); ++q)
            qids.push_back((q * 5) % kPool);
        const unsigned k = 10;
        const shard::AnswerSet answers = shard::answerSharded(
            Algo::Ggnn, DatasetId::Sift10k,
            shard::PartitionPolicy::Spatial, 4, qids, kPool, k);
        LintReport merged;
        std::size_t entries = 0;
        for (const std::vector<Neighbor> &topk : answers.topk) {
            std::vector<std::pair<double, std::uint32_t>> pairs;
            pairs.reserve(topk.size());
            for (const Neighbor &n : topk) {
                pairs.emplace_back(
                    static_cast<double>(n.dist2),
                    static_cast<std::uint32_t>(n.index));
            }
            entries += pairs.size();
            merged.merge(lintMergeOrder(pairs, k));
        }
        tally(show("merge/ggnn-sift10k/spatial-n4", merged, entries));
    }

    std::printf(
        "schedule_lint: %zu workloads, %zu errors, %zu warnings\n",
        workloads, errors, warnings);
    return errors ? 1 : 0;
}
