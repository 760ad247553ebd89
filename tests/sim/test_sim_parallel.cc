/**
 * @file
 * Intra-simulation parallelism bit-identity: the TickTeam size
 * (HSU_SIM_JOBS) and skipping must be pure scheduling changes. Every
 * golden workload and synthetic trace produces the same RunResult and
 * the same full StatGroup dump across HSU_SIM_JOBS levels and against
 * the HSU_NO_SKIP checking mode. Only the skip diagnostics
 * (isSkipDiagnostic) may differ.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "search/runner.hh"
#include "sim/gpu.hh"

namespace hsu
{
namespace
{

void
expectSameDump(const StatGroup &a, const StatGroup &b)
{
    const auto da = a.dump();
    const auto db = b.dump();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        ASSERT_EQ(da[i].first, db[i].first);
        if (isSkipDiagnostic(da[i].first))
            continue;
        EXPECT_EQ(da[i].second, db[i].second) << da[i].first;
    }
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instrsIssued, b.instrsIssued);
    EXPECT_EQ(a.hsuCompleted, b.hsuCompleted);
    EXPECT_EQ(a.l2LinesAccessed, b.l2LinesAccessed);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.dramRowLocality, b.dramRowLocality);
    EXPECT_EQ(a.offloadableFraction, b.offloadableFraction);
}

KernelTrace
mixedTrace(unsigned warps, std::uint64_t seed)
{
    Rng rng(seed);
    KernelTrace kt;
    for (unsigned w = 0; w < warps; ++w) {
        kt.warps.emplace_back();
        TraceBuilder tb(kt.warps.back());
        for (int i = 0; i < 30; ++i) {
            const auto roll = rng.nextBounded(4);
            if (roll == 0) {
                tb.alu(1 + static_cast<unsigned>(rng.nextBounded(8)));
            } else if (roll == 1) {
                tb.shared(1 + static_cast<unsigned>(rng.nextBounded(4)));
            } else if (roll == 2) {
                const auto tok = tb.loadPattern(
                    0x100000 + rng.nextBounded(1 << 20) * 64, 4, 4);
                tb.alu(2, kFullMask, TraceBuilder::tokenMask(tok));
            } else {
                std::uint64_t addrs[kWarpSize];
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    addrs[l] =
                        0x800000 + rng.nextBounded(1 << 18) * 128;
                }
                const auto tok =
                    tb.hsuOp(HsuOpcode::PointEuclid, HsuMode::Euclid,
                             addrs, 64,
                             1 + static_cast<unsigned>(
                                 rng.nextBounded(4)),
                             0xffffu);
                tb.alu(1, kFullMask, TraceBuilder::tokenMask(tok));
            }
        }
    }
    return kt;
}

KernelTrace
loadStallTrace(unsigned warps, std::uint64_t seed)
{
    // Load -> dependent ALU per warp: long DRAM stalls that give the
    // per-SM skipper real gaps to jump, with mixed offloadable flags
    // so stall attribution is order-sensitive.
    Rng rng(seed);
    KernelTrace kt;
    for (unsigned w = 0; w < warps; ++w) {
        kt.warps.emplace_back();
        TraceBuilder tb(kt.warps.back());
        for (unsigned i = 0; i < 12; ++i) {
            const auto tok = tb.loadPattern(
                0x100000 + rng.nextBounded(1 << 20) * 64, 4, 4);
            tb.alu(1 + (w % 3), kFullMask,
                   TraceBuilder::tokenMask(tok), (w + i) % 2 == 0);
        }
    }
    return kt;
}

TEST(SimParallel, GoldenWorkloadsBitIdenticalAcrossSimJobs)
{
    // Every golden workload, Baseline + Hsu runs: identical RunResult
    // and full stat dump at simJobs 1 (serial reference), 2, and 8.
    GpuConfig gpu;
    gpu.numSms = 2;
    gpu.finalize();
    RunnerOptions tiny;
    tiny.ggnnQueries = 32;
    tiny.pointQueries = 64;
    tiny.keyQueries = 64;

    for (const auto &[algo, id] :
         {std::pair{Algo::Btree, DatasetId::BTree10k},
          std::pair{Algo::Bvhnn, DatasetId::Random10k},
          std::pair{Algo::Flann, DatasetId::Bunny},
          std::pair{Algo::Ggnn, DatasetId::Sift10k}}) {
        GpuConfig serial = gpu;
        serial.simJobs = 1;
        const WorkloadResult ref =
            runWorkload(algo, id, serial, tiny);
        for (const unsigned jobs : {2u, 8u}) {
            GpuConfig par = gpu;
            par.simJobs = jobs;
            const WorkloadResult got =
                runWorkload(algo, id, par, tiny);
            SCOPED_TRACE(got.label + " jobs=" + std::to_string(jobs));
            expectSameResult(ref.base, got.base);
            expectSameResult(ref.hsu, got.hsu);
            expectSameDump(ref.baseStats, got.baseStats);
            expectSameDump(ref.hsuStats, got.hsuStats);
        }
    }
}

/**
 * The strongest cross-check: the skipping loop, with and without a
 * TickTeam, vs the checking mode that ticks every SM every cycle and
 * asserts every predicted gap really was eventless; the checking mode
 * on a team (per-cycle lockstep) must agree too. @p stally marks a
 * trace with long DRAM stalls the skipper must jump.
 */
void
expectSkipMatchesCheckingMode(const char *name, const KernelTrace &trace,
                              unsigned num_sms, bool stally)
{
    for (const auto policy :
         {SchedulerPolicy::Gto, SchedulerPolicy::RoundRobin}) {
        GpuConfig ref;
        ref.numSms = num_sms;
        ref.scheduler = policy;
        ref.simJobs = 1;
        ref.noSkip = 1;
        ref.finalize();
        StatGroup ref_stats;
        const RunResult r = simulateKernel(ref, trace, ref_stats);
        EXPECT_EQ(ref_stats.get("sim.ff_cycles"), 0.0);
        EXPECT_EQ(ref_stats.get("sim.horizon_cycles"), 0.0);

        for (const auto &[no_skip, jobs] :
             {std::pair{0, 1u}, std::pair{0, 8u}, std::pair{1, 8u}}) {
            GpuConfig cfg = ref;
            cfg.simJobs = jobs;
            cfg.noSkip = no_skip;
            StatGroup stats;
            const RunResult p = simulateKernel(cfg, trace, stats);
            SCOPED_TRACE(std::string(name) +
                         " noSkip=" + std::to_string(no_skip) +
                         " jobs=" + std::to_string(jobs));
            expectSameResult(p, r);
            expectSameDump(stats, ref_stats);
            if (no_skip == 0 && stally) {
                // The per-SM skipper must actually skip on this trace.
                EXPECT_GT(stats.get("sim.horizon_cycles"), 0.0);
            }
        }
    }
}

TEST(SimParallel, ParallelSkipMatchesSerialNoSkip)
{
    expectSkipMatchesCheckingMode("mixedTrace", mixedTrace(24, 47), 4,
                                  false);
    expectSkipMatchesCheckingMode("loadStallTrace", loadStallTrace(16, 47),
                                  4, true);
}

TEST(SimParallel, SingleSmHorizonMatchesSerial)
{
    // Degenerate shape: one SM, many requested jobs. The loop must
    // collapse cleanly (no team, pure per-SM skipping).
    expectSkipMatchesCheckingMode("loadStallTrace/1sm", loadStallTrace(8, 59),
                                  1, true);
}

} // namespace
} // namespace hsu
