/**
 * @file
 * Whole-GPU timing simulator: SMs + memory hierarchy, Table III config.
 */

#ifndef HSU_SIM_GPU_HH
#define HSU_SIM_GPU_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "common/tickteam.hh"
#include "mem/memsys.hh"
#include "sim/config.hh"
#include "sim/sm.hh"
#include "sim/trace.hh"

namespace hsu
{

/** Headline results of one kernel simulation. */
struct RunResult
{
    std::uint64_t cycles = 0;
    double instrsIssued = 0;
    double hsuCompleted = 0;       //!< HSU instructions (all modes)
    double l2LinesAccessed = 0;    //!< roofline denominator
    double l1Accesses = 0;         //!< summed over SMs
    double l1Misses = 0;           //!< true misses (MSHR hits excluded)
    double dramRowLocality = 0;    //!< accesses per row activation
    double offloadableFraction = 0;//!< Fig 7 metric (baseline runs)

    /** HSU ops completed per cycle (roofline y-axis). */
    double
    hsuOpsPerCycle() const
    {
        return cycles ? hsuCompleted / static_cast<double>(cycles) : 0.0;
    }

    /** HSU ops per L2 line accessed (roofline x-axis). */
    double
    opsPerL2Line() const
    {
        return l2LinesAccessed > 0 ? hsuCompleted / l2LinesAccessed : 0.0;
    }

    /** L1 miss rate with MSHR merges counted as hits (Section VI-J). */
    double
    l1MissRate() const
    {
        return l1Accesses > 0 ? l1Misses / l1Accesses : 0.0;
    }
};

/**
 * Simulator-throughput diagnostics: "sim.ff_cycles" counts cycles the
 * whole GPU skipped, "sim.horizon_cycles" cycles individual SMs sat
 * out. They depend on how the loop ran (skipping vs HSU_NO_SKIP), not
 * on the modeled machine, so they are the only stats allowed to differ
 * between runs of the same kernel.
 */
inline bool
isSkipDiagnostic(std::string_view name)
{
    return name == "sim.ff_cycles" || name == "sim.horizon_cycles";
}

/**
 * The simulated GPU. Construct once per kernel run (components carry
 * run-local state); stats accumulate into the caller's StatGroup.
 *
 * One run loop, the event horizon. Each visited cycle ticks the memory
 * system serially (the canonical commit point: SM traffic is staged in
 * the private L1 miss queues and drained in SM-index order), then
 * every SM that is due: its cached next self-event has arrived or a
 * memory completion woke it. The clock then jumps to the earliest
 * memory event or cached SM event. SMs that sat out cycles catch up
 * their occupancy stats before their next tick. HSU_SIM_JOBS only
 * sizes the TickTeam that ticks a cycle's due SMs concurrently; at 1
 * the same loop runs with no team. Per-SM skipped cycles are reported
 * as "sim.horizon_cycles", globally skipped ones as "sim.ff_cycles" —
 * see DESIGN.md "Intra-simulation parallelism" for the identity
 * argument.
 *
 * HSU_NO_SKIP=1 (GpuConfig::noSkip) is the loop's checking mode:
 * every SM ticks every cycle, the clock advances by one, and the loop
 * panics if an event appears strictly inside a gap that the exact
 * next-event scan predicted to be eventless.
 *
 * Per-SM stats ("sm.*" / "lsu.*" / "rtu.*") accumulate in per-SM
 * staging groups and merge into the caller's StatGroup in SM-index
 * order when the run finishes; every increment is an exact small
 * integer, so the merged totals do not depend on the tick schedule.
 */
class Gpu
{
  public:
    Gpu(const GpuConfig &cfg, StatGroup &stats);

    /**
     * Simulate a kernel to completion. Completion is detected on the
     * exact cycle the last unit drains (no check-period slack).
     * @param trace     warps to execute
     * @param max_cycles safety bound; exceeded -> panic
     */
    RunResult run(const KernelTrace &trace,
                  std::uint64_t max_cycles = 2'000'000'000ULL);

    StatGroup &stats() { return stats_; }

  private:
    /** True when every SM has drained and no memory request is alive. */
    bool allDone() const;

    /** The event-horizon loop; returns the completion cycle. */
    std::uint64_t runHorizon(std::uint64_t max_cycles, unsigned workers);

    /** Account SM @p i's skipped cycles, tick it, refresh its cache. */
    void catchUpAndTick(unsigned i, Cycle now);

    /** Fold the per-SM staging groups into stats_ (SM-index order). */
    void mergeSmStats();

    [[noreturn]] void panicWedged(const char *why, std::uint64_t now);

    GpuConfig cfg_;
    StatGroup &stats_;
    std::unique_ptr<MemorySystem> mem_;
    std::vector<std::unique_ptr<StatGroup>> smStats_;
    std::vector<std::unique_ptr<Sm>> sms_;
    bool smStatsMerged_ = false;
    bool checking_ = false; //!< HSU_NO_SKIP checking mode

    // Event-horizon state (sized by runHorizon).
    std::vector<Cycle> smNextEvent_;   //!< cached per-SM next event
    std::vector<Cycle> smLastTicked_;  //!< last cycle the SM ticked
    std::vector<std::uint64_t> smSkipped_; //!< per-SM skipped cycles
    std::vector<unsigned> activeSms_;  //!< scratch: SMs due this cycle
    std::unique_ptr<TickTeam> team_;

    Stat &statFfCycles_;
    Stat &statHorizonCycles_;
};

/** Convenience: simulate a kernel on a fresh GPU and return results. */
RunResult simulateKernel(const GpuConfig &cfg, const KernelTrace &trace,
                         StatGroup &stats);

/**
 * Shared-trace overload: the executor and the serving layer hand the
 * same immutable lowered trace to many simulations without copying it
 * (see DESIGN.md "Trace lifetime and sharing"). The simulation only
 * reads the trace; the shared_ptr keeps it alive for the duration.
 */
RunResult simulateKernel(const GpuConfig &cfg,
                         const std::shared_ptr<const KernelTrace> &trace,
                         StatGroup &stats);

} // namespace hsu

#endif // HSU_SIM_GPU_HH
