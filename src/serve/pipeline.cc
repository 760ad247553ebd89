#include "serve/pipeline.hh"

#include "common/logging.hh"
#include "sim/gpu.hh"

namespace hsu::serve
{

QueryPipeline::QueryPipeline(const PipelineConfig &cfg,
                             DatasetId dataset, std::size_t pool_size,
                             ScheduleRecorder recorder)
    : cfg_(cfg), dataset_(dataset), poolSize_(pool_size),
      rec_(recorder), batcher_(cfg.batch)
{
    if (cfg_.degrade.shedWater == 0)
        hsu_fatal("shedWater 0 would shed every request");
    if (pool_size == 0)
        hsu_fatal("pipeline needs a non-empty query pool");
    rec_.record(0, ScheduleEventKind::PipelineConfig,
                cfg_.degrade.highWater, cfg_.degrade.shedWater,
                cfg_.batch.maxBatch);
}

bool
QueryPipeline::admit(const Request &req)
{
    // Queue depth sampled once: both the shed decision and the
    // schedule log's watermark evidence (SV004) use this value.
    const std::uint64_t depth = batcher_.pending();
    if (depth >= cfg_.degrade.shedWater) {
        stats_.shedAdmission += 1;
        rec_.record(req.arrivalCycle, ScheduleEventKind::Admit, req.id,
                    req.queryId, kAdmitShed | (depth << 2));
        return false;
    }
    batcher_.push(req);
    rec_.record(req.arrivalCycle, ScheduleEventKind::Admit, req.id,
                req.queryId, kAdmitQueued | (depth << 2));
    return true;
}

bool
QueryPipeline::batchReady(Cycle now) const
{
    return batcher_.batchReady(now);
}

Cycle
QueryPipeline::nextForceCycle() const
{
    return batcher_.nextForceCycle();
}

std::size_t
QueryPipeline::pending() const
{
    return batcher_.pending();
}

FormedBatch
QueryPipeline::formBatch(Cycle now, Histogram &queue_wait,
                         Histogram &batch_size)
{
    FormedBatch formed;
    // The degradation signal is the queue depth the batch was formed
    // under, sampled before the pop (pre-refactor server semantics).
    const std::uint64_t depth = batcher_.pending();
    formed.degraded = depth >= cfg_.degrade.highWater;
    formed.requests = batcher_.popBatch(now, formed.expired);
    stats_.shedExpired += formed.expired.size();
    for (const Request &r : formed.expired)
        rec_.record(now, ScheduleEventKind::Expire, r.id,
                    r.deadlineCycle);
    if (formed.requests.empty())
        return formed; // everything pending had expired
    stats_.batches += 1;
    formed.seq = stats_.batches;
    rec_.record(now, ScheduleEventKind::BatchSeal, formed.seq,
                formed.requests.size(),
                (formed.degraded ? 1u : 0u) | (depth << 1));
    batch_size.add(static_cast<double>(formed.requests.size()));
    if (formed.degraded)
        stats_.degraded += formed.requests.size();
    // Queue waits in FIFO pop order — the histogram's double-sum is
    // order-sensitive and must not depend on the ordering policy. The
    // seal-time membership is recorded in the same pre-policy order:
    // SV002 checks the dispatch order against it.
    for (const Request &r : formed.requests) {
        queue_wait.add(static_cast<double>(now - r.arrivalCycle));
        rec_.record(now, ScheduleEventKind::SealMember, r.id,
                    r.deadlineCycle, formed.seq);
    }
    orderBatch(cfg_.policy, dataset_, poolSize_, formed.requests);
    return formed;
}

BatchExecutor::BatchExecutor(const GpuConfig &gpu,
                             Cycle launch_overhead_cycles,
                             const ServeKnobs &degraded_knobs,
                             BatchTraceEmitter emitter,
                             ScheduleRecorder recorder)
    : gpu_(gpu), launchOverheadCycles_(launch_overhead_cycles),
      degradedKnobs_(degraded_knobs), emitter_(std::move(emitter)),
      rec_(recorder)
{
    hsu_assert(emitter_, "batch executor needs a trace emitter");
}

void
BatchExecutor::dispatch(ThreadPool &pool, Cycle now,
                        FormedBatch &&formed)
{
    hsu_assert(!busy_, "dispatch on a busy instance");
    std::vector<std::uint32_t> ids;
    ids.reserve(formed.requests.size());
    for (const Request &r : formed.requests)
        ids.push_back(r.queryId);
    const ServeKnobs knobs =
        formed.degraded ? degradedKnobs_ : ServeKnobs{};
    // The task is a pure function of (batch contents, knobs, config):
    // the emitter owns no mutable state and simulateKernel() writes a
    // task-local StatGroup, so the result is identical no matter which
    // worker runs it or when it resolves.
    const GpuConfig gpu = gpu_;
    const BatchTraceEmitter emitter = emitter_;
    pendingSim_ = pool.submit([gpu, emitter, ids, knobs]() {
        const std::shared_ptr<const KernelTrace> trace =
            emitter(ids, knobs);
        StatGroup stats;
        const RunResult run = simulateKernel(gpu, trace, stats);
        BatchSim sim;
        sim.cycles = run.cycles;
        sim.l1Accesses = run.l1Accesses;
        sim.l1Misses = run.l1Misses;
        sim.rtuBusyCycles = stats.get("rtu.busy_cycles");
        return sim;
    });
    busy_ = true;
    resolved_ = false;
    dispatchCycle_ = now;
    seq_ = formed.seq;
    batch_ = std::move(formed.requests);
    degraded_ = formed.degraded;
    rec_.record(now, ScheduleEventKind::Dispatch, seq_, batch_.size(),
                degraded_ ? 1 : 0);
    // Launch-order membership (post-policy): SV002's permutation side.
    for (const Request &r : batch_)
        rec_.record(now, ScheduleEventKind::DispatchMember, r.id,
                    r.queryId, seq_);
}

void
BatchExecutor::resolve(SimTotals &totals)
{
    if (!busy_ || resolved_)
        return;
    const BatchSim sim = pendingSim_.get();
    readyCycle_ = dispatchCycle_ + launchOverheadCycles_ + sim.cycles;
    resolved_ = true;
    rec_.record(readyCycle_, ScheduleEventKind::Resolve, seq_,
                sim.cycles, readyCycle_);
    totals.kernelCycles += sim.cycles;
    totals.smCycles += sim.cycles * gpu_.numSms;
    totals.l1Accesses += sim.l1Accesses;
    totals.l1Misses += sim.l1Misses;
    totals.rtuBusyCycles += sim.rtuBusyCycles;
}

void
BatchExecutor::finish()
{
    hsu_assert(busy_ && resolved_, "finish on an idle instance");
    busy_ = false;
    batch_.clear();
}

} // namespace hsu::serve
