#include "shard/cluster.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "common/logging.hh"
#include "common/threadpool.hh"
#include "shard/shard_index.hh"

namespace hsu::shard
{

namespace
{

/** One (shard, replica) lane: the scheduling pipeline plus the
 *  simulated GPU instances that share it (serve/pipeline), bound to
 *  the shard's sub-index through their trace emitter. */
struct Lane
{
    unsigned shard;
    serve::QueryPipeline pipe;
    std::vector<serve::BatchExecutor> execs;

    Lane(unsigned shard_idx, unsigned instances,
         const serve::PipelineConfig &pipeline, DatasetId dataset,
         std::size_t pool_size, const GpuConfig &gpu,
         Cycle launch_overhead, const serve::BatchTraceEmitter &emitter,
         ScheduleRecorder recorder)
        : shard(shard_idx), pipe(pipeline, dataset, pool_size, recorder)
    {
        execs.reserve(instances);
        for (unsigned i = 0; i < instances; ++i) {
            execs.emplace_back(gpu, launch_overhead,
                               pipeline.degrade.degradedKnobs, emitter,
                               recorder);
        }
    }
    Lane(Lane &&) = default; // move-only, as the executors are

    bool
    busy() const
    {
        return std::any_of(
            execs.begin(), execs.end(),
            [](const serve::BatchExecutor &e) { return e.busy(); });
    }

    /** Queued plus in-flight sub-queries (the LeastOutstanding load
     *  signal). */
    std::size_t
    outstanding() const
    {
        std::size_t n = pipe.pending();
        for (const serve::BatchExecutor &e : execs)
            n += e.busy() ? e.batch().size() : 0;
        return n;
    }
};

/** A sub-query crossing the scatter link, due at deliverCycle. */
struct ScatterMsg
{
    Cycle deliverCycle = 0;
    std::size_t lane = 0;
    serve::Request req;
};

/** Router-side join state of one in-flight request. */
struct Join
{
    Cycle arrivalCycle = 0;
    std::uint32_t queryId = 0;   //!< for the router answer cache
    std::uint32_t remaining = 0; //!< sub-queries not yet resolved
    std::uint32_t served = 0;
    std::uint32_t shed = 0;
    bool degraded = false;       //!< any sub-answer ran degraded
    Cycle readyMax = 0;          //!< latest gathered sub-answer
};

} // namespace

std::string
toString(LoadBalance policy)
{
    switch (policy) {
      case LoadBalance::RoundRobin:
        return "round-robin";
      case LoadBalance::LeastOutstanding:
        return "least-outstanding";
    }
    hsu_panic("unknown load-balance policy");
}

ClusterServer::ClusterServer(Algo algo, DatasetId dataset,
                             const ClusterConfig &cfg)
    : algo_(algo), dataset_(dataset), cfg_(cfg)
{
    if (cfg_.numShards == 0)
        hsu_fatal("cluster needs at least one shard");
    if (cfg_.replicasPerShard == 0)
        hsu_fatal("cluster needs at least one replica per shard");
    if (cfg_.instancesPerReplica == 0)
        hsu_fatal("cluster needs at least one GPU instance per replica");
    if (cfg_.queryPoolSize == 0)
        hsu_fatal("cluster needs a non-empty query pool");
    if (cfg_.pipeline.degrade.shedWater == 0)
        hsu_fatal("shedWater 0 would shed every sub-query");
}

ClusterReport
ClusterServer::run(const std::vector<serve::Request> &requests)
{
    const KernelVariant variant = cfg_.gpu.rtUnitEnabled
                                      ? KernelVariant::Hsu
                                      : KernelVariant::Baseline;
    const Partitioning &part = cachedPartitioning(
        dataset_, cfg_.partition, cfg_.numShards);
    const Cycle scatterHop = cfg_.link.hopCycles(cfg_.scatterBytes);
    const Cycle gatherHop = cfg_.link.hopCycles(cfg_.gatherBytes);

    ThreadPool pool(cfg_.jobs);

    // Schedule auditing: router-side decisions (routing, hops, joins,
    // the router cache) record under kRouterLane; each lane records
    // under its own index. Everything records from this event-loop
    // thread, so the log is bit-identical for any job count.
    const ScheduleRecorder routerRec(cfg_.scheduleLog, kRouterLane);
    const Cycle mergePerShard = cfg_.mergeCyclesPerShard;
    routerRec.record(0, ScheduleEventKind::ClusterConfig, scatterHop,
                     gatherHop, mergePerShard);

    // The one answer cache sits at the router, so a request is cached
    // once, not per shard.
    serve::AnswerCache cache(cfg_.pipeline.cache, algo_, dataset_,
                             cfg_.queryPoolSize, routerRec);

    std::vector<Lane> lanes;
    lanes.reserve(static_cast<std::size_t>(cfg_.numShards) *
                  cfg_.replicasPerShard);
    for (unsigned s = 0; s < cfg_.numShards; ++s) {
        const ShardKey key{dataset_, cfg_.partition, cfg_.numShards, s};
        const serve::BatchTraceEmitter emitter =
            [algo = algo_, key, variant, dp = cfg_.gpu.datapath,
             pool_size = cfg_.queryPoolSize](
                const std::vector<std::uint32_t> &ids,
                const ServeKnobs &knobs) {
                return emitShardBatchTrace(algo, key, variant, dp,
                                           ids, pool_size, knobs);
            };
        for (unsigned r = 0; r < cfg_.replicasPerShard; ++r) {
            const ScheduleRecorder laneRec(
                cfg_.scheduleLog,
                static_cast<std::uint32_t>(lanes.size()));
            lanes.emplace_back(s, cfg_.instancesPerReplica,
                               cfg_.pipeline, dataset_,
                               cfg_.queryPoolSize, cfg_.gpu,
                               cfg_.launchOverheadCycles, emitter,
                               laneRec);
        }
    }
    std::vector<std::size_t> rrNext(cfg_.numShards, 0);

    ClusterReport report;
    report.offered = requests.size();
    report.shards.resize(cfg_.numShards);
    serve::SimTotals totals;

    std::deque<ScatterMsg> scatter;
    std::map<std::uint64_t, Join> inflight;
    std::size_t nextArrival = 0;
    Cycle now = 0;

    auto any_busy = [&] {
        return std::any_of(lanes.begin(), lanes.end(),
                           [](const Lane &l) { return l.busy(); });
    };
    auto any_pending = [&] {
        return std::any_of(lanes.begin(), lanes.end(),
                           [](const Lane &l) {
                               return l.pipe.pending() > 0;
                           });
    };

    // One request completes: count it and update the latency tallies.
    auto complete = [&](Cycle arrival, Cycle done) {
        report.completed += 1;
        report.latencyCycles.add(static_cast<double>(done - arrival));
        report.lastCompletionCycle =
            std::max(report.lastCompletionCycle, done);
    };

    // Resolve one request's join once its last sub-query lands. The
    // merge is charged per contributing shard answer; a request whose
    // every sub-query was shed never produced an answer. Full answers
    // fill the router cache (degraded ones only when configured).
    auto finalize = [&](std::uint64_t id, const Join &join) {
        if (join.served == 0) {
            report.shedRequests += 1;
            routerRec.record(0, ScheduleEventKind::JoinDone, id,
                             join.served, join.shed);
            return;
        }
        const Cycle done =
            join.readyMax +
            mergePerShard * static_cast<Cycle>(join.served);
        if (join.shed > 0) {
            report.partialAnswers += 1;
        } else if (!join.degraded || cfg_.pipeline.cache.cacheDegraded) {
            cache.insert(join.queryId, done);
        }
        routerRec.record(done, ScheduleEventKind::JoinDone, id,
                         join.served, join.shed);
        complete(join.arrivalCycle, done);
    };

    auto subquery_resolved = [&](std::uint64_t id, bool served,
                                 Cycle ready, bool degraded) {
        const auto it = inflight.find(id);
        hsu_assert(it != inflight.end(),
                   "sub-query resolved for unknown request ", id);
        Join &join = it->second;
        hsu_assert(join.remaining > 0, "join over-resolved");
        join.remaining -= 1;
        if (served) {
            join.served += 1;
            join.degraded = join.degraded || degraded;
            join.readyMax = std::max(join.readyMax, ready);
        } else {
            join.shed += 1;
            routerRec.record(now, ScheduleEventKind::SubShed, id);
        }
        if (join.remaining == 0) {
            finalize(id, join);
            inflight.erase(it);
        }
    };

    // Fill every idle instance with a ready batch of its lane. All
    // sims dispatched here are submitted before anything blocks on
    // them, so concurrently-busy instances really simulate
    // concurrently.
    auto dispatch_ready = [&] {
        for (Lane &lane : lanes) {
            for (serve::BatchExecutor &exec : lane.execs) {
                if (exec.busy())
                    continue;
                if (!lane.pipe.batchReady(now))
                    break;
                serve::FormedBatch formed = lane.pipe.formBatch(
                    now, report.shards[lane.shard].queueWaitCycles,
                    report.batchSize);
                for (const serve::Request &r : formed.expired)
                    subquery_resolved(r.id, false, 0, false);
                if (formed.requests.empty())
                    continue; // everything pending had expired
                exec.dispatch(pool, now, std::move(formed));
            }
        }
    };

    // Resolve in-flight completion times, in lane and instance order:
    // blocking on the first future lets the rest keep running in the
    // pool.
    auto resolve_busy = [&] {
        for (Lane &lane : lanes) {
            for (serve::BatchExecutor &exec : lane.execs)
                exec.resolve(totals);
        }
    };

    // Deliver one sub-query to its lane, whose pipeline applies
    // admission shedding per shard replica.
    auto deliver = [&](const ScatterMsg &msg) {
        Lane &lane = lanes[msg.lane];
        report.shards[lane.shard].subqueries += 1;
        serve::Request sub = msg.req;
        sub.arrivalCycle = msg.deliverCycle;
        if (!lane.pipe.admit(sub))
            subquery_resolved(msg.req.id, false, 0, false);
    };

    while (nextArrival < requests.size() || !scatter.empty() ||
           any_pending() || any_busy()) {
        dispatch_ready();
        resolve_busy();

        if (nextArrival >= requests.size() && scatter.empty() &&
            !any_pending() && !any_busy()) {
            break;
        }

        // Next event: an arrival, a scatter delivery, a batch
        // completion, or the age trigger of a lane with an idle
        // instance.
        Cycle next = kNeverCycle;
        if (nextArrival < requests.size())
            next = std::min(next, requests[nextArrival].arrivalCycle);
        if (!scatter.empty())
            next = std::min(next, scatter.front().deliverCycle);
        for (const Lane &lane : lanes) {
            for (const serve::BatchExecutor &exec : lane.execs) {
                next = std::min(next, exec.busy()
                                          ? exec.readyCycle()
                                          : lane.pipe.nextForceCycle());
            }
        }
        hsu_assert(next != kNeverCycle, "cluster wedged at cycle ",
                   now);
        now = std::max(now, next);

        // Completions first (frees instances and bounds queues), in
        // lane and instance order for a deterministic join/histogram
        // fill. Each sub-answer crosses the gather hop before it can
        // merge.
        for (std::size_t li = 0; li < lanes.size(); ++li) {
            const ScheduleRecorder gatherRec(
                cfg_.scheduleLog, static_cast<std::uint32_t>(li));
            for (serve::BatchExecutor &exec : lanes[li].execs) {
                if (!exec.busy() || exec.readyCycle() > now)
                    continue;
                const Cycle laneReady = exec.readyCycle();
                for (const serve::Request &r : exec.batch()) {
                    gatherRec.record(laneReady,
                                     ScheduleEventKind::Gather, r.id,
                                     laneReady, laneReady + gatherHop);
                    subquery_resolved(r.id, true,
                                      laneReady + gatherHop,
                                      exec.degraded());
                }
                exec.finish();
            }
        }

        // Scatter messages that have crossed the link by now, in send
        // (FIFO) order.
        while (!scatter.empty() &&
               scatter.front().deliverCycle <= now) {
            deliver(scatter.front());
            scatter.pop_front();
        }

        // Then admissions up to the current cycle: probe the router
        // cache, else route, pick a replica per target shard, and put
        // the sub-queries on the wire (zero-latency links deliver
        // inline, in arrival order).
        while (nextArrival < requests.size() &&
               requests[nextArrival].arrivalCycle <= now) {
            const serve::Request &req = requests[nextArrival++];
            hsu_assert(req.queryId < cfg_.queryPoolSize,
                       "request query id outside the serving pool");
            if (cache.lookup(req.queryId, req.arrivalCycle)) {
                complete(req.arrivalCycle,
                         req.arrivalCycle +
                             cfg_.pipeline.cache.hitLatencyCycles);
                continue;
            }
            const std::vector<std::uint32_t> targets = routeQuery(
                algo_, part, req.queryId, cfg_.queryPoolSize);
            routerRec.record(req.arrivalCycle,
                             ScheduleEventKind::RouterRoute, req.id,
                             req.queryId, targets.size());
            report.fanout.add(static_cast<double>(targets.size()));
            report.subqueries += targets.size();
            if (targets.empty()) {
                // Provably-empty answer (key in no shard's range /
                // radius reaching no shard): answered at the router.
                complete(req.arrivalCycle, req.arrivalCycle);
                continue;
            }
            Join join;
            join.arrivalCycle = req.arrivalCycle;
            join.queryId = req.queryId;
            join.remaining =
                static_cast<std::uint32_t>(targets.size());
            hsu_assert(inflight.emplace(req.id, join).second,
                       "duplicate request id ", req.id);
            for (const std::uint32_t s : targets) {
                std::size_t lane_idx =
                    std::size_t{s} * cfg_.replicasPerShard;
                if (cfg_.balance == LoadBalance::RoundRobin) {
                    lane_idx += rrNext[s];
                    rrNext[s] =
                        (rrNext[s] + 1) % cfg_.replicasPerShard;
                } else {
                    std::size_t best = 0;
                    for (std::size_t r = 1; r < cfg_.replicasPerShard;
                         ++r) {
                        if (lanes[lane_idx + r].outstanding() <
                            lanes[lane_idx + best].outstanding()) {
                            best = r;
                        }
                    }
                    lane_idx += best;
                }
                const ScatterMsg msg{req.arrivalCycle + scatterHop,
                                     lane_idx, req};
                routerRec.record(req.arrivalCycle,
                                 ScheduleEventKind::Scatter, req.id,
                                 lane_idx, msg.deliverCycle);
                if (msg.deliverCycle <= now)
                    deliver(msg);
                else
                    scatter.push_back(msg);
            }
        }
    }

    hsu_assert(inflight.empty(), "requests left unresolved");
    hsu_assert(report.completed + report.shedRequests ==
                   report.offered,
               "request accounting does not balance");

    // Scheduling counters live in the lane pipelines; fold them into
    // the per-shard slices (u64 sums, order-independent).
    for (const Lane &lane : lanes) {
        ShardReport &shard = report.shards[lane.shard];
        const serve::PipelineStats &sched = lane.pipe.stats();
        shard.batches += sched.batches;
        shard.shedAdmission += sched.shedAdmission;
        shard.shedExpired += sched.shedExpired;
        shard.degraded += sched.degraded;
    }
    report.cacheHits = cache.hits();
    report.kernelCycles = totals.kernelCycles;
    report.smCycles = totals.smCycles;
    report.l1Accesses = totals.l1Accesses;
    report.l1Misses = totals.l1Misses;
    report.rtuBusyCycles = totals.rtuBusyCycles;

    // Cluster-level queue-wait percentiles: log-bucket-aligned merge
    // of the per-shard histograms (common/stats Histogram::merge).
    for (const ShardReport &shard : report.shards)
        report.queueWaitCycles.merge(shard.queueWaitCycles);
    return report;
}

} // namespace hsu::shard
