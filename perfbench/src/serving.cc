/**
 * @file
 * serve_2x2: open-loop Poisson streams with a Zipf query mix on a
 * 2-shard x 2-replica spatial cluster (router answer cache, coherent
 * batching, link and merge costs). Two families: GGNN, which every
 * shard answers, and B+tree, which one shard owns per key.
 */

#include <algorithm>
#include <map>
#include <random>
#include <sstream>

#include "analysis/schedule_lint.hh"
#include "common/phase_timer.hh"
#include "oracle.hh"
#include "serve/arrivals.hh"
#include "shard/answers.hh"
#include "shard/cluster.hh"
#include "shard/shard_index.hh"
#include "workloads.hh"
#include "workloads/datasets.hh"

namespace perfbench
{

namespace
{

using namespace hsu;

constexpr unsigned kShards = 2;
constexpr unsigned kReplicas = 2;
constexpr std::uint32_t kPool = 1024;
constexpr unsigned kAnswerSample = 8;

/** One open-loop stream of one family, replayed on a fresh cluster. */
struct Stream
{
    Algo algo = Algo::Ggnn;
    DatasetId dataset{};
    unsigned maxBatch = 32;
    Cycle maxWaitCycles = 50'000;
    /** Offered load, held below the knee so nothing queues up. */
    double qps = 0;
    std::size_t requests = 0;
    /** Derives this stream's seed from --seed. */
    std::uint64_t salt = 0;

    std::vector<serve::Request> requestsIn;
    // Fixed by the warm-up run; every repeat must reproduce it.
    bool warmed = false;
    shard::ClusterReport ref;
    std::vector<double> latencyCycles; //!< exact, per request
};

shard::ClusterConfig
clusterConfig(const Stream &f)
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 4;
    cfg.gpu.finalize();
    cfg.partition = shard::PartitionPolicy::Spatial;
    cfg.numShards = kShards;
    cfg.replicasPerShard = kReplicas;
    cfg.queryPoolSize = kPool;
    cfg.pipeline.batch.maxBatch = f.maxBatch;
    cfg.pipeline.batch.maxWaitCycles = f.maxWaitCycles;
    cfg.pipeline.policy = serve::BatchPolicyKind::Coherent;
    cfg.pipeline.cache.capacity = 64;
    // Watermarks far above any queue this load builds: a request is
    // never degraded or shed, so every answer is exact.
    cfg.pipeline.degrade.highWater = 1u << 20;
    cfg.pipeline.degrade.shedWater = 1u << 21;
    cfg.link.latencyCycles = 2'000;
    cfg.link.bytesPerCycle = 16.0;
    cfg.mergeCyclesPerShard = 200;
    cfg.jobs = 1;
    return cfg;
}

bool
sameReport(const shard::ClusterReport &a, const shard::ClusterReport &b)
{
    if (a.shards.size() != b.shards.size())
        return false;
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        if (a.shards[s].batches != b.shards[s].batches ||
            a.shards[s].subqueries != b.shards[s].subqueries)
            return false;
    }
    return a.offered == b.offered && a.completed == b.completed &&
           a.partialAnswers == b.partialAnswers &&
           a.shedRequests == b.shedRequests &&
           a.subqueries == b.subqueries && a.cacheHits == b.cacheHits &&
           a.lastCompletionCycle == b.lastCompletionCycle &&
           a.latencyCycles.count() == b.latencyCycles.count() &&
           a.latencyCycles.sum() == b.latencyCycles.sum() &&
           a.latencyCycles.max() == b.latencyCycles.max() &&
           a.kernelCycles == b.kernelCycles && a.smCycles == b.smCycles &&
           a.l1Accesses == b.l1Accesses && a.l1Misses == b.l1Misses &&
           a.rtuBusyCycles == b.rtuBusyCycles;
}

std::uint64_t
launches(const shard::ClusterReport &r)
{
    std::uint64_t n = 0;
    for (const shard::ShardReport &s : r.shards)
        n += s.batches;
    return n;
}

/**
 * Exact per-request latency from the stream and the schedule log: a
 * routed request completes at its JoinDone, one routed to no shard at
 * its arrival, and one never routed was a router cache hit.
 */
std::vector<double>
latenciesFromLog(const std::vector<serve::Request> &stream,
                 const ScheduleLog &log, Cycle hit_latency)
{
    std::map<std::uint64_t, std::uint64_t> fanout;
    std::map<std::uint64_t, Cycle> done;
    for (const ScheduleEvent &e : log.events) {
        if (e.lane != kRouterLane)
            continue;
        if (e.kind == ScheduleEventKind::RouterRoute)
            fanout[e.a] = e.c;
        else if (e.kind == ScheduleEventKind::JoinDone)
            done[e.a] = e.cycle;
    }
    std::vector<double> out;
    out.reserve(stream.size());
    for (const serve::Request &r : stream) {
        const auto f = fanout.find(r.id);
        if (f == fanout.end())
            out.push_back(static_cast<double>(hit_latency));
        else if (f->second == 0)
            out.push_back(0.0);
        else
            out.push_back(static_cast<double>(done.at(r.id) -
                                              r.arrivalCycle));
    }
    return out;
}

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(const Options &opts) : opts_(opts)
    {
        // Several short streams per family, each replayed on a fresh
        // cluster: a short item repeats often enough for its fastest
        // repeat to be a steady estimate, and the pooled requests keep
        // the latency percentiles steady across seeds.
        const auto add = [this](Algo algo, DatasetId dataset,
                                unsigned max_batch, Cycle max_wait,
                                double qps, std::size_t requests,
                                unsigned count) {
            for (unsigned k = 0; k < count; ++k) {
                Stream st;
                st.algo = algo;
                st.dataset = dataset;
                st.maxBatch = max_batch;
                st.maxWaitCycles = max_wait;
                st.qps = qps;
                st.requests = requests;
                st.salt = streams_.size() + 1;
                streams_.push_back(std::move(st));
            }
        };
        add(Algo::Ggnn, DatasetId::Sift10k, 32, 50'000, 600'000.0, 80, 4);
        add(Algo::Btree, DatasetId::BTree10k, 256, 10'000, 3'000'000.0,
            1000, 4);
    }

    void
    setup(Tracer &tracer) override
    {
        std::vector<DatasetId> built;
        for (Stream &st : streams_) {
            tracer.span("workloads.generate", [&] {
                serve::ArrivalConfig arr;
                arr.process = serve::ArrivalProcess::Poisson;
                arr.ratePerCycle =
                    serve::ArrivalConfig::ratePerCycleFromQps(st.qps);
                arr.queryPoolSize = kPool;
                arr.queryDist = serve::QueryDist::Zipf;
                arr.seed = opts_.seed * 0x9e3779b97f4a7c15ULL + st.salt;
                st.requestsIn =
                    serve::ArrivalGenerator(arr, st.algo, st.dataset)
                        .generate(st.requests);
            });
            if (std::find(built.begin(), built.end(), st.dataset) !=
                built.end())
                continue;
            built.push_back(st.dataset);
            buildDataset(st, tracer);
        }
    }

    std::vector<Item>
    items(Tracer &tracer, Checks &checks) override
    {
        std::vector<Item> out;
        for (Stream &f : streams_) {
            out.push_back([this, &f, &tracer, &checks](bool traced) {
                run(f, traced, tracer, checks);
            });
        }
        return out;
    }

    void
    finalChecks(Checks &checks) override
    {
        std::mt19937_64 rng(opts_.seed ^ 0x5e7eULL);
        for (Stream &f : streams_) {
            std::vector<std::uint32_t> ids;
            for (unsigned i = 0; i < kAnswerSample; ++i)
                ids.push_back(f.requestsIn[rng() % f.requestsIn.size()].queryId);
            const shard::AnswerSet got = shard::answerSharded(
                f.algo, f.dataset, shard::PartitionPolicy::Spatial, kShards,
                ids, kPool);
            checkAnswers(f, ids, got, checks);
        }
    }

    void
    endToEnd(const RoundTimes &times, Metrics &out) override
    {
        const double host = times.hostSeconds();
        double kernel_cycles = 0;
        std::vector<double> latency;
        for (const Stream &f : streams_) {
            kernel_cycles += static_cast<double>(f.ref.kernelCycles);
            latency.insert(latency.end(), f.latencyCycles.begin(),
                           f.latencyCycles.end());
        }
        out.set("host_s", host, "s");
        out.set("sim_mcycles_per_s", kernel_cycles / host / 1e6,
                "Mcycles/s");
        // Cycles at the model's 1 GHz clock -> simulated microseconds.
        out.set("sim_p50_us", percentile(latency, 50.0) / 1e3, "sim_us");
        out.set("sim_p99_us", percentile(latency, 99.0) / 1e3, "sim_us");
    }

    void
    perLayer(const Tracer &, Metrics &out) override
    {
        double launch_count = 0, batch_sum = 0, batch_n = 0, hits = 0,
               offered = 0, fanout_sum = 0, fanout_n = 0, subqueries = 0,
               kernel_cycles = 0, sm_cycles = 0, l1_acc = 0, l1_miss = 0,
               rtu_busy = 0;
        Histogram wait;
        for (const Stream &f : streams_) {
            const shard::ClusterReport &r = f.ref;
            launch_count += static_cast<double>(launches(r));
            batch_sum += r.batchSize.sum();
            batch_n += static_cast<double>(r.batchSize.count());
            hits += static_cast<double>(r.cacheHits);
            offered += static_cast<double>(r.offered);
            fanout_sum += r.fanout.sum();
            fanout_n += static_cast<double>(r.fanout.count());
            subqueries += static_cast<double>(r.subqueries);
            kernel_cycles += static_cast<double>(r.kernelCycles);
            sm_cycles += static_cast<double>(r.smCycles);
            l1_acc += r.l1Accesses;
            l1_miss += r.l1Misses;
            rtu_busy += r.rtuBusyCycles;
            wait.merge(r.queueWaitCycles);
        }
        const double rounds =
            std::max<double>(1.0, static_cast<double>(tracedRounds_));
        const double sim_s = phase_.simulateSeconds / rounds;
        out.set("serve.launches", launch_count, "count");
        out.set("serve.mean_batch", batch_sum / batch_n, "requests");
        out.set("serve.cache_hit_rate", hits / offered, "ratio");
        out.set("serve.queue_wait_p50_us", wait.percentile(50.0) / 1e3,
                "sim_us");
        out.set("serve.queue_wait_p99_us", wait.percentile(99.0) / 1e3,
                "sim_us");
        out.set("serve.loop_s", loopSeconds_ / rounds, "s");
        out.set("shard.fanout_mean", fanout_sum / fanout_n, "shards");
        out.set("shard.subqueries", subqueries, "count");
        // Shard batch emission does not enter the Emit phase counter,
        // so these read what the program reports.
        out.set("search.emit_s", phase_.emitSeconds / rounds, "s");
        out.set("search.emit_calls",
                static_cast<double>(phase_.emitCalls) / rounds, "count");
        out.set("lower.s", phase_.lowerSeconds / rounds, "s");
        out.set("lower.calls",
                static_cast<double>(phase_.lowerCalls) / rounds, "count");
        out.set("sim.s", sim_s, "s");
        out.set("sim.calls",
                static_cast<double>(phase_.simulateCalls) / rounds,
                "count");
        out.set("sim.cycles", kernel_cycles, "cycles");
        out.set("mem.l1_accesses", l1_acc, "count");
        out.set("mem.l1_miss_rate", l1_miss / l1_acc, "ratio");
        out.set("rtunit.busy_frac", rtu_busy / sm_cycles, "ratio");
    }

  private:
    /** Base data for the answer checks, the partitioning, both shard
     *  sub-indexes and the serving query pool of one dataset. */
    void
    buildDataset(const Stream &f, Tracer &tracer)
    {
        const DatasetInfo &info = datasetInfo(f.dataset);
        tracer.span("workloads.generate", [&] {
            if (info.kind == DatasetKind::Keys)
                keys_ = generateKeys(info);
            else
                points_ = generatePoints(info);
        });
        tracer.span("shard.partition", [&] {
            return &shard::cachedPartitioning(
                f.dataset, shard::PartitionPolicy::Spatial, kShards);
        });
        for (unsigned s = 0; s < kShards; ++s) {
            const shard::ShardIndex &idx = tracer.span(
                "shard.index_build", [&]() -> const shard::ShardIndex & {
                    return shard::shardIndex(f.dataset,
                                             shard::PartitionPolicy::Spatial,
                                             kShards, s);
                });
            if (tracer.enabled())
                timeShardBuilders(f, idx, tracer);
        }
        if (info.kind == DatasetKind::Keys)
            serveQueryKeys(f.dataset, kPool);
        else
            serveQueryPoints(f.dataset, kPool);
        serveQueryCoherenceKeys(f.dataset, kPool);
    }

    /** Traced runs only: rebuild each shard's index with the
     *  structures builder alone, for the per-layer build times. */
    void
    timeShardBuilders(const Stream &f, const shard::ShardIndex &idx,
                      Tracer &tracer)
    {
        if (f.algo == Algo::Ggnn) {
            tracer.span("structures.hnsw_build", [&] {
                return HnswGraph::build(idx.points,
                                        datasetInfo(f.dataset).metric);
            });
            return;
        }
        // Slice ids are ranks in the full sorted key set.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
        for (const std::uint32_t id : idx.slice.ids)
            pairs.emplace_back(keys_[id], id);
        tracer.span("structures.btree_build",
                    [&] { return BTree::build(std::move(pairs)); });
    }

    void
    run(Stream &f, bool traced, Tracer &tracer, Checks &checks)
    {
        shard::ClusterConfig cfg = clusterConfig(f);
        // The warm-up and the traced rounds record the schedule; the
        // timed untraced rounds run without a log.
        ScheduleLog log;
        const bool logged = !f.warmed || traced;
        if (logged)
            cfg.scheduleLog = &log;
        const PipelinePhaseReport before = pipelinePhaseReport();
        const double start = nowSeconds();
        const shard::ClusterReport rep = tracer.span("serve.run", [&] {
            return shard::ClusterServer(f.algo, f.dataset, cfg)
                .run(f.requestsIn);
        });
        const double elapsed = nowSeconds() - start;
        const PipelinePhaseReport after = pipelinePhaseReport();
        if (traced)
            addTracedRun(elapsed, before, after);

        const std::uint64_t sim_calls = checks.corrupt(
            "serve_launches", after.simulateCalls - before.simulateCalls,
            after.simulateCalls - before.simulateCalls + 1);
        checks.expect("serve_launches", sim_calls == launches(rep),
                      toString(f.algo) + ": " + std::to_string(sim_calls) +
                          " simulate calls for " +
                          std::to_string(launches(rep)) + " launches");
        if (logged)
            lintLog(f, log, checks);
        if (!f.warmed) {
            warmUp(f, rep, log, cfg, checks);
            return;
        }
        shard::ClusterReport seen = rep;
        seen.kernelCycles = checks.corrupt("determinism", seen.kernelCycles,
                                           seen.kernelCycles + 1);
        checks.expect("determinism", sameReport(seen, f.ref),
                      toString(f.algo) +
                          ": repeated stream differs from the warm-up");
    }

    void
    warmUp(Stream &f, const shard::ClusterReport &rep, const ScheduleLog &log,
           const shard::ClusterConfig &cfg, Checks &checks)
    {
        const std::uint64_t completed =
            checks.corrupt("serve_completed", rep.completed,
                           rep.completed - 1);
        std::ostringstream why;
        why << toString(f.algo) << ": offered " << rep.offered
            << ", completed " << completed << ", partial "
            << rep.partialAnswers << ", shed " << rep.shedRequests;
        checks.expect("serve_completed",
                      rep.offered == f.requestsIn.size() &&
                          completed == rep.offered &&
                          rep.partialAnswers == 0 && rep.shedRequests == 0,
                      why.str());

        // The exact latencies must add up to the report's histogram.
        f.latencyCycles = latenciesFromLog(
            f.requestsIn, log, cfg.pipeline.cache.hitLatencyCycles);
        double sum = 0, max = 0;
        for (const double l : f.latencyCycles) {
            sum += l;
            max = std::max(max, l);
        }
        sum = checks.corrupt("serve_latency_log", sum, sum + 1);
        checks.expect("serve_latency_log",
                      sum == rep.latencyCycles.sum() &&
                          max == rep.latencyCycles.max(),
                      toString(f.algo) +
                          ": latencies from the schedule log do not match "
                          "the report");
        f.ref = rep;
        f.warmed = true;
    }

    void
    lintLog(const Stream &f, const ScheduleLog &log, Checks &checks)
    {
        ScheduleLog linted = log;
        if (checks.corrupting("schedule_lint")) {
            // Drop the first completed join: one request never resolves.
            const auto it = std::find_if(
                linted.events.begin(), linted.events.end(),
                [](const ScheduleEvent &e) {
                    return e.kind == ScheduleEventKind::JoinDone;
                });
            if (it != linted.events.end())
                linted.events.erase(it);
        }
        const LintReport lint = lintScheduleLog(linted);
        checks.expect("schedule_lint", lint.errorCount() == 0,
                      toString(f.algo) + ": " + lint.str());
    }

    void
    checkAnswers(const Stream &f, const std::vector<std::uint32_t> &ids,
                 const shard::AnswerSet &got, Checks &checks)
    {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const std::uint32_t q = ids[i];
            bool ok = false;
            if (f.algo == Algo::Ggnn) {
                const PointSet &pool = serveQueryPoints(f.dataset, kPool);
                std::vector<Neighbor> want = bruteTopK(
                    points_, datasetInfo(f.dataset).metric, pool[q], 10);
                if (i == 0 && checks.corrupting("serve_answers"))
                    std::swap(want[0].index, want[1].index);
                ok = i < got.topk.size() &&
                     got.topk[i].size() == want.size() &&
                     std::equal(want.begin(), want.end(),
                                got.topk[i].begin(),
                                [](const Neighbor &a, const Neighbor &b) {
                                    return a.index == b.index &&
                                           a.dist2 == b.dist2;
                                });
            } else {
                const std::uint32_t key =
                    serveQueryKeys(f.dataset, kPool)[q];
                std::optional<std::uint32_t> want = bruteKeyRank(keys_, key);
                if (i == 0 && checks.corrupting("serve_answers"))
                    want = want ? std::optional<std::uint32_t>() : 0u;
                ok = i < got.values.size() && got.values[i] == want;
            }
            checks.expect("serve_answers", ok,
                          toString(f.algo) + ": sharded answer for query " +
                              std::to_string(q) +
                              " differs from the brute-force scan");
        }
    }

    /** Sum one traced cluster run's phase-counter deltas, and its
     *  event-loop time: run time minus the lower and simulate time. */
    void
    addTracedRun(double elapsed, const PipelinePhaseReport &a,
                 const PipelinePhaseReport &b)
    {
        loopSeconds_ += elapsed - (b.lowerSeconds - a.lowerSeconds) -
                        (b.simulateSeconds - a.simulateSeconds);
        phase_.emitSeconds += b.emitSeconds - a.emitSeconds;
        phase_.lowerSeconds += b.lowerSeconds - a.lowerSeconds;
        phase_.simulateSeconds += b.simulateSeconds - a.simulateSeconds;
        phase_.emitCalls += b.emitCalls - a.emitCalls;
        phase_.lowerCalls += b.lowerCalls - a.lowerCalls;
        phase_.simulateCalls += b.simulateCalls - a.simulateCalls;
        // Both families run once per traced round.
        tracedRuns_ += 1;
        tracedRounds_ = tracedRuns_ / streams_.size();
    }

    Options opts_;
    std::vector<Stream> streams_;
    PointSet points_;
    std::vector<std::uint32_t> keys_;
    PipelinePhaseReport phase_; //!< summed over traced runs
    double loopSeconds_ = 0;    //!< summed over traced runs
    std::size_t tracedRuns_ = 0;
    std::size_t tracedRounds_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Options &opts)
{
    return std::make_unique<ServeWorkload>(opts);
}

} // namespace perfbench
