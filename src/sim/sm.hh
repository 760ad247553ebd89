/**
 * @file
 * Streaming-multiprocessor timing model.
 *
 * Each SM has four sub-cores issuing one instruction per cycle under a
 * greedy-then-oldest (GTO) warp scheduler, a shared LSU, and (when
 * enabled) one RT/HSU unit shared by the sub-cores. The LSU and the RT
 * unit's FIFO memory queue time-share the single L1D port. Warp-level
 * dependencies run through a 32-bit token scoreboard per warp.
 */

#ifndef HSU_SIM_SM_HH
#define HSU_SIM_SM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/cycletime.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "rtunit/rtunit.hh"
#include "sim/config.hh"
#include "sim/lsu.hh"
#include "sim/trace.hh"

namespace hsu
{

/** One SM: sub-cores, warp slots, LSU, and optionally an RT/HSU unit. */
class Sm
{
  public:
    Sm(const GpuConfig &cfg, unsigned sm_id, Cache &l1, StatGroup &stats);

    /** Queue a warp for execution on this SM. */
    void addWarp(const WarpTrace *trace);

    /** Advance one cycle. */
    void tick(std::uint64_t now);

    /** True when every queued warp has retired and units drained. */
    bool done() const;

    /**
     * Earliest future cycle at which ticking this SM could do anything,
     * assuming no memory completion arrives earlier: pending LSU / RT
     * memory-queue traffic (every cycle), a sub-core instruction block
     * expiring, a warp's trailing block finishing (retirement), or an
     * RT-unit internal event. Warps blocked on tokens are woken by
     * completions, which are events of the memory system / RT unit.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Cached-event-probe variant for the horizon loop: called once
     * right after tick(now), it returns the SM's next self-event with
     * a dense-phase backoff — after a streak of consecutive "next
     * cycle" answers it stops re-scanning and answers now + 1
     * unconditionally for a fixed number of ticks. The backoff only
     * ever under-estimates (extra ticks of an unchanged SM are
     * no-ops), so results are unaffected; it bounds the scan cost in
     * compute-dense phases where the answer is always "next cycle".
     */
    Cycle nextEventAfterTick(Cycle now);

    /**
     * True when a memory completion reached this SM since its last
     * tick (set by the L1's completion observer), invalidating the
     * cached next-event value. Cleared at the start of tick().
     */
    bool wakePending() const { return wakePending_; }

    /**
     * Account per-cycle occupancy stats for the eventless gap
     * (now, next) exactly as the per-cycle loop would have: busy
     * sub-cores stay busy for the whole gap, stalled sub-cores stay
     * stalled with unchanged candidates, empty sub-cores stay idle.
     */
    void fastForwardStats(Cycle now, Cycle next);

    /** Access to the RT unit (may be null in the baseline config). */
    RtUnit *rtUnit() { return rt_.get(); }

  private:
    enum class TryResult : std::uint8_t
    {
        Issued,
        Blocked,
    };

    struct WarpCtx
    {
        const WarpTrace *trace = nullptr;
        std::size_t pc = 0;
        std::uint32_t pendingTokens = 0;
        /**
         * Tokens cleared by completions since this SM last ticked.
         * fastForwardStats needs the token state *during* a skipped
         * gap; the horizon loop applies a wake cycle's completions
         * before the catch-up call, so the gap-time mask is
         * pendingTokens | clearedSinceTick. Zero whenever the SM is
         * ticked every cycle (completions precede the tick).
         */
        std::uint32_t clearedSinceTick = 0;
        unsigned beatsIssued = 0;
        unsigned outstanding = 0;
        std::uint64_t order = 0;
        std::uint64_t blockEnd = 0; //!< last Alu/Shared block finishes
        bool active = false;
    };

    struct SubCore
    {
        std::vector<unsigned> slots; //!< warp slots owned by this sub-core
        int greedy = -1;             //!< slot issued most recently
        std::uint64_t busyUntil = 0; //!< multi-instruction block occupancy
        bool busyOffloadable = false;
    };

    TryResult tryIssue(unsigned slot, SubCore &sc, std::uint64_t now,
                       bool &offloadable_attr);
    void retireFinished(std::uint64_t now);
    void activatePending();
    void issueSubCore(SubCore &sc, std::uint64_t now);

    /** Fill @p order with the sub-core's issue candidates (greedy warp
     *  first, then oldest-first) and return the candidate count. */
    unsigned buildCandidateOrder(const SubCore &sc, unsigned order[64],
                                 unsigned &greedy_count) const;

    const GpuConfig &cfg_;
    unsigned smId_;
    Cache &l1_;
    std::unique_ptr<Lsu> lsu_;
    std::unique_ptr<RtUnit> rt_;

    std::vector<WarpCtx> warps_;
    std::vector<SubCore> subCores_;
    std::deque<const WarpTrace *> pending_;
    std::uint64_t nextOrder_ = 0;
    std::size_t activeCount_ = 0;
    bool wakePending_ = false;
    bool anyCleared_ = false;  //!< some warp has clearedSinceTick bits
    unsigned denseStreak_ = 0; //!< consecutive "event next cycle" probes
    unsigned probeHold_ = 0;   //!< remaining ticks answering now+1 blind

    Stat &statSlotCycles_;
    Stat &statBusyCycles_;
    Stat &statOffloadableCycles_;
    Stat &statStallCycles_;
    Stat &statIdleCycles_;
    Stat &statInstrsIssued_;
    Stat &statWarpsRetired_;
};

} // namespace hsu

#endif // HSU_SIM_SM_HH
