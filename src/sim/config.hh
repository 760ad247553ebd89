/**
 * @file
 * Whole-GPU configuration (Table III of the paper).
 *
 * The paper simulates an 80-SM Volta V100. For tractable runtimes we
 * default to a smaller SM count with identically-configured SMs and
 * proportionally scaled workloads; all reported figures are relative
 * (speedups, ratios), which are per-SM-throughput faithful. Set
 * numSms = 80 to reproduce the full-chip configuration.
 */

#ifndef HSU_SIM_CONFIG_HH
#define HSU_SIM_CONFIG_HH

#include <cstdint>

#include "hsu/isa.hh"
#include "mem/memsys.hh"

namespace hsu
{

/** Warp-scheduler policies supported by the sub-cores. */
enum class SchedulerPolicy : std::uint8_t
{
    Gto,       //!< greedy-then-oldest (Table III default)
    RoundRobin //!< loose round-robin (for ablations)
};

/** Timing and capacity parameters for one SM and the whole GPU. */
struct GpuConfig
{
    // --- Table III parameters -------------------------------------
    unsigned numSms = 4;          //!< paper: 80 (scaled, see file docs)
    unsigned subCoresPerSm = 4;
    SchedulerPolicy scheduler = SchedulerPolicy::Gto;
    unsigned maxWarpsPerSm = 64;
    unsigned rtUnitsPerSm = 1;
    unsigned warpBufferSize = 8;  //!< RT unit warp buffer entries
    bool rtFetchMerging = true;   //!< CISC fetch line merging (ablation)

    // --- SM pipeline timing ---------------------------------------
    unsigned aluLatency = 4;      //!< dependent-use latency of ALU ops
    unsigned sharedLatency = 24;  //!< shared-memory dependent-use latency
    unsigned lsuQueueSize = 32;   //!< pending line-accesses in the LSU

    // --- RT / HSU unit --------------------------------------------
    bool rtUnitEnabled = true;    //!< false = non-RT baseline GPU
    DatapathConfig datapath{};

    // --- Simulation execution (host-side; no timing effect) --------
    /**
     * Worker threads of the TickTeam that ticks a cycle's due SMs in
     * the event-horizon loop (see DESIGN.md "Intra-simulation
     * parallelism"). 0 reads HSU_SIM_JOBS once per process (default
     * 1; a value that is not a positive integer is fatal). 1 runs the
     * same loop with no team. The thread count is
     * clamped to numSms and the hardware concurrency; results are
     * bit-identical at every value (SM phases are independent and
     * statistics are staged per SM).
     */
    unsigned simJobs = 0;
    /**
     * Checking-mode override: -1 reads HSU_NO_SKIP once per process
     * (0 or 1; anything else is fatal), 0 skips eventless cycles, 1
     * ticks every SM every cycle and panics if an event appears inside
     * a gap the exact next-event scan predicted. Results are identical
     * either way; only the skip diagnostics differ.
     */
    int noSkip = -1;

    // --- Memory hierarchy (L1/L2/DRAM, Table III) ------------------
    MemSysParams mem{};

    /** Convenience: configure the memory system for numSms L1s. */
    void
    finalize()
    {
        mem.numL1 = numSms;
    }
};

} // namespace hsu

#endif // HSU_SIM_CONFIG_HH
