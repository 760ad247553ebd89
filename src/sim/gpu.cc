#include "sim/gpu.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/phase_timer.hh"

namespace hsu
{

namespace
{

[[maybe_unused]] HSU_AUDIT_NONDET_SOURCE(
    kSmMergeAudit, audit::NondetKind::FloatAccumulation,
    "gpu.cc:mergeSmStats",
    "per-SM stat partial sums merged in SM-index order; every simulator "
    "stat increment is an exact small integer (< 2^53), so accumulation "
    "order cannot change the totals");

/**
 * Environment defaults are latched on first use: a Gpu is constructed
 * per kernel run and a bench fleet runs thousands of them, so per-run
 * getenv() calls are both measurable and a determinism hazard (a
 * mid-run setenv would flip behavior between simulations). Tests that
 * need a non-default value use the GpuConfig overrides instead.
 */
bool
processNoSkipDefault()
{
    static const bool v = [] {
        // audit[env-read]: read once per process (see file comment)
        const char *e = std::getenv("HSU_NO_SKIP");
        if (e == nullptr)
            return false;
        const std::string_view v(e);
        if (v != "0" && v != "1")
            hsu_fatal("HSU_NO_SKIP must be 0 or 1, got '", e, "'");
        return v == "1";
    }();
    return v;
}

unsigned
processSimJobsDefault()
{
    static const unsigned v = [] {
        // audit[env-read]: read once per process (see file comment)
        if (const char *env = std::getenv("HSU_SIM_JOBS")) {
            char *end = nullptr;
            const long n = std::strtol(env, &end, 10);
            if (end == env || *end != '\0' || n <= 0) {
                hsu_fatal("HSU_SIM_JOBS must be a positive integer, "
                          "got '", env, "'");
            }
            return static_cast<unsigned>(n);
        }
        return 1u;
    }();
    return v;
}

} // namespace

Gpu::Gpu(const GpuConfig &cfg, StatGroup &stats)
    : cfg_(cfg), stats_(stats),
      statFfCycles_(stats.scalar("sim.ff_cycles")),
      statHorizonCycles_(stats.scalar("sim.horizon_cycles"))
{
    cfg_.finalize();
    mem_ = std::make_unique<MemorySystem>(cfg_.mem, stats_);
    for (unsigned i = 0; i < cfg_.numSms; ++i) {
        // Per-SM staging group: SMs share stat *names* ("sm.*",
        // "lsu.*", "rtu.*"), and a shared accumulator would be the one
        // data race of the parallel SM phase. L1 stats stay in the
        // caller's group — their names are per-SM already.
        smStats_.push_back(std::make_unique<StatGroup>());
        sms_.push_back(std::make_unique<Sm>(cfg_, i, mem_->l1(i),
                                            *smStats_.back()));
    }
}

bool
Gpu::allDone() const
{
    for (const auto &sm : sms_) {
        if (!sm->done())
            return false;
    }
    return mem_->idle();
}

void
Gpu::mergeSmStats()
{
    if (smStatsMerged_)
        return;
    smStatsMerged_ = true;
    for (const auto &group : smStats_) {
        for (const auto &[name, value] : group->dump())
            stats_.scalar(name) += value;
    }
}

void
Gpu::panicWedged(const char *why, std::uint64_t now)
{
    // Dump forensic state before dying: a wedged simulation is always
    // a simulator bug.
    mergeSmStats();
    for (const auto &[name, value] : stats_.dump())
        // audit[stray-stdio]: forensic dump on the panic path
        std::fprintf(stderr, "  %s = %.0f\n", name.c_str(), value);
    hsu_panic(why, " at cycle ", now);
}

void
Gpu::catchUpAndTick(unsigned i, Cycle now)
{
    Sm &sm = *sms_[i];
    const Cycle last = smLastTicked_[i];
    if (last + 1 < now) {
        // The SM sat out (last, now): no self-event was due and no
        // completion reached it (a completion forces a tick that same
        // cycle), so its state is exactly what a per-cycle loop would
        // have carried through the gap — account the occupancy stats
        // the skipped ticks would have recorded. This cycle's
        // completions (applied just before this call) don't disturb
        // the accounting: fastForwardStats reads only SM-phase state.
        sm.fastForwardStats(last, now);
        smSkipped_[i] += now - last - 1;
    }
    sm.tick(now);
    // The checking mode keeps every SM due every cycle.
    smNextEvent_[i] = checking_ ? now + 1 : sm.nextEventAfterTick(now);
    smLastTicked_[i] = now;
}

std::uint64_t
Gpu::runHorizon(std::uint64_t max_cycles, unsigned workers)
{
    if (workers > 1)
        team_ = std::make_unique<TickTeam>(workers);

    const unsigned n = static_cast<unsigned>(sms_.size());
    smNextEvent_.assign(n, 0);  // everyone ticks at cycle 0
    smLastTicked_.assign(n, 0);
    smSkipped_.assign(n, 0);
    activeSms_.reserve(n);
    // Checking mode: the end of the eventless gap last predicted by the
    // exact scan; every cycle strictly inside it must confirm it.
    Cycle predicted_event = 0;

    std::uint64_t now = 0;
    for (;;) {
        if (now >= max_cycles)
            panicWedged("simulation exceeded cycle bound", now);

        // Serial memory phase: the canonical commit point. Staged L1
        // traffic drains in SM-index order and completions fire here,
        // flagging the SMs they woke.
        mem_->tick(now);

        activeSms_.clear();
        for (unsigned i = 0; i < n; ++i) {
            if (sms_[i]->wakePending() || smNextEvent_[i] <= now)
                activeSms_.push_back(i);
        }

        // Parallel SM phase. SMs share nothing here (private L1s,
        // per-SM stat groups); the barrier orders it against the
        // memory phases on either side. Small cycles run inline — a
        // barrier round trip costs more than one or two SM ticks.
        if (team_ && activeSms_.size() >= 2) {
            team_->run(
                [this, now](std::size_t begin, std::size_t end) {
                    for (std::size_t k = begin; k < end; ++k)
                        catchUpAndTick(activeSms_[k], now);
                },
                activeSms_.size());
        } else {
            for (const unsigned i : activeSms_)
                catchUpAndTick(i, now);
        }

        // Exact completion: no check-period slack inflating the count.
        if (allDone())
            break;

        // The horizon: the earliest cycle anything can happen — a
        // memory-system event (which includes every pending completion
        // delivery) or an SM self-event. Every wake cycle is a memory
        // event, so no SM can be woken inside the jump. Skipping reads
        // the cached SM events; the checking mode rescans every SM.
        Cycle next = mem_->nextEventCycle(now);
        for (unsigned i = 0; i < n; ++i) {
            next = std::min(next, checking_ ? sms_[i]->nextEventCycle(now)
                                            : smNextEvent_[i]);
        }
        if (next == kNeverCycle)
            panicWedged("no future event but simulation not done", now);
        // Main simulation loop: release builds skip the check.
        hsu_debug_assert(next > now,
                         "next event cycle must be in the future");

        if (checking_) {
            // Single-step, but verify the horizon's claim that nothing
            // happens strictly inside a predicted gap.
            if (now + 1 < predicted_event) {
                if (next != predicted_event) {
                    panicWedged("event-skip invariant violated: "
                                "event appeared inside predicted gap",
                                now);
                }
            } else {
                predicted_event = next;
            }
            ++now;
            continue;
        }
        if (next > now + 1)
            statFfCycles_ += static_cast<double>(next - now - 1);
        now = next;
    }

    // SMs that sat out the tail still account per-cycle occupancy
    // through the completion cycle, as if they had ticked on it.
    for (unsigned i = 0; i < n; ++i) {
        if (smLastTicked_[i] < now) {
            sms_[i]->fastForwardStats(smLastTicked_[i], now + 1);
            smSkipped_[i] += now - smLastTicked_[i];
        }
    }
    for (const std::uint64_t skipped : smSkipped_)
        statHorizonCycles_ += static_cast<double>(skipped);
    return now;
}

RunResult
Gpu::run(const KernelTrace &trace, std::uint64_t max_cycles)
{
    // Distribute warps round-robin across SMs (thread-block scheduler).
    for (std::size_t i = 0; i < trace.warps.size(); ++i)
        sms_[i % sms_.size()]->addWarp(&trace.warps[i]);

    checking_ =
        cfg_.noSkip < 0 ? processNoSkipDefault() : cfg_.noSkip != 0;
    const unsigned jobs =
        cfg_.simJobs > 0 ? cfg_.simJobs : processSimJobsDefault();
    // Threads beyond the SM count or the machine never help; clamping
    // cannot change results (the horizon loop is schedule-oblivious).
    const unsigned workers = std::min(
        {jobs, cfg_.numSms,
         std::max(1u, std::thread::hardware_concurrency())});

    const std::uint64_t now = runHorizon(max_cycles, workers);
    mergeSmStats();

    RunResult r;
    r.cycles = now + 1;
    r.instrsIssued = stats_.get("sm.instrs_issued");
    r.hsuCompleted = stats_.get("rtu.completed");
    r.l2LinesAccessed = stats_.get("l2.lines_accessed");
    for (unsigned i = 0; i < cfg_.numSms; ++i) {
        const std::string p = "l1d." + std::to_string(i);
        r.l1Accesses += stats_.get(p + ".accesses");
        r.l1Misses += stats_.get(p + ".misses");
    }
    r.dramRowLocality = mem_->dram().rowLocality();
    const double busy = stats_.get("sm.busy_cycles") +
                        stats_.get("sm.stall_cycles");
    r.offloadableFraction =
        busy > 0 ? stats_.get("sm.offloadable_cycles") / busy : 0.0;
    return r;
}

RunResult
simulateKernel(const GpuConfig &cfg, const KernelTrace &trace,
               StatGroup &stats)
{
    const ScopedPhaseTimer timer(PipelinePhase::Simulate);
    Gpu gpu(cfg, stats);
    return gpu.run(trace);
}

RunResult
simulateKernel(const GpuConfig &cfg,
               const std::shared_ptr<const KernelTrace> &trace,
               StatGroup &stats)
{
    hsu_assert(trace, "simulateKernel: null shared trace");
    return simulateKernel(cfg, *trace, stats);
}

} // namespace hsu
