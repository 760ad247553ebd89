/**
 * @file
 * Simulator determinism and conservation properties: identical runs
 * produce identical cycle counts and counters; memory-system counters
 * balance; scheduler policies behave as configured.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "search/runner.hh"
#include "sim/gpu.hh"

namespace hsu
{
namespace
{

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

TEST(Determinism, IdenticalRunsIdenticalCounters)
{
    const KernelTrace trace = mixedTrace(40, 17);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();

    StatGroup s1, s2;
    const RunResult r1 = simulateKernel(cfg, trace, s1);
    const RunResult r2 = simulateKernel(cfg, trace, s2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    const auto d1 = s1.dump();
    const auto d2 = s2.dump();
    ASSERT_EQ(d1.size(), d2.size());
    for (std::size_t i = 0; i < d1.size(); ++i) {
        EXPECT_EQ(d1[i].first, d2[i].first);
        EXPECT_EQ(d1[i].second, d2[i].second) << d1[i].first;
    }
}

TEST(Determinism, MemoryCountersBalance)
{
    const KernelTrace trace = mixedTrace(30, 23);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();
    StatGroup stats;
    simulateKernel(cfg, trace, stats);

    // Every L1 access is a hit, a reserved hit, or a miss.
    for (unsigned i = 0; i < cfg.numSms; ++i) {
        const std::string p = "l1d." + std::to_string(i);
        EXPECT_DOUBLE_EQ(stats.get(p + ".accesses"),
                         stats.get(p + ".hits") +
                             stats.get(p + ".hit_reserved") +
                             stats.get(p + ".misses") +
                             stats.get(p + ".writes"));
    }
    // Same at the L2.
    EXPECT_DOUBLE_EQ(stats.get("l2.accesses"),
                     stats.get("l2.hits") +
                         stats.get("l2.hit_reserved") +
                         stats.get("l2.misses") +
                         stats.get("l2.writes"));
    // DRAM row accounting: every access is a hit or an activation.
    EXPECT_DOUBLE_EQ(stats.get("dram.accesses"),
                     stats.get("dram.row_hits") +
                         stats.get("dram.activations"));
    // Attribution covers every sub-core cycle.
    EXPECT_DOUBLE_EQ(stats.get("sm.slot_cycles"),
                     stats.get("sm.busy_cycles") +
                         stats.get("sm.stall_cycles") +
                         stats.get("sm.idle_cycles"));
}

TEST(Determinism, SmCountScalesThroughput)
{
    const KernelTrace trace = mixedTrace(64, 29);
    GpuConfig one;
    one.numSms = 1;
    one.finalize();
    GpuConfig four;
    four.numSms = 4;
    four.finalize();
    StatGroup s1, s4;
    const RunResult r1 = simulateKernel(one, trace, s1);
    const RunResult r4 = simulateKernel(four, trace, s4);
    EXPECT_LT(r4.cycles, r1.cycles);
    // Same total work either way.
    EXPECT_EQ(s1.get("sm.warps_retired"), 64.0);
    EXPECT_EQ(s4.get("sm.warps_retired"), 64.0);
    EXPECT_DOUBLE_EQ(s1.get("sm.instrs_issued"),
                     s4.get("sm.instrs_issued"));
}

TEST(Determinism, SchedulerPoliciesBothComplete)
{
    const KernelTrace trace = mixedTrace(32, 31);
    for (const auto policy :
         {SchedulerPolicy::Gto, SchedulerPolicy::RoundRobin}) {
        GpuConfig cfg;
        cfg.numSms = 1;
        cfg.scheduler = policy;
        cfg.finalize();
        StatGroup stats;
        const RunResult r = simulateKernel(cfg, trace, stats);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_EQ(stats.get("sm.warps_retired"), 32.0);
    }
}

TEST(Determinism, WarpBufferMonotoneAtSmallSizes)
{
    // More warp-buffer entries never hurt this latency-bound trace.
    const KernelTrace trace = mixedTrace(48, 37);
    std::uint64_t prev = ~0ull;
    for (const unsigned wb : {1u, 2u, 4u, 8u}) {
        GpuConfig cfg;
        cfg.numSms = 1;
        cfg.warpBufferSize = wb;
        cfg.finalize();
        StatGroup stats;
        const RunResult r = simulateKernel(cfg, trace, stats);
        EXPECT_LE(r.cycles, prev) << "wb=" << wb;
        prev = r.cycles;
    }
}

KernelTrace
loadStallTrace(unsigned warps, std::uint64_t seed)
{
    // Every warp alternates load -> dependent ALU, so all warps stall
    // on DRAM together and leave multi-candidate eventless gaps; the
    // mixed offloadable flags make stall attribution order-sensitive.
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

void
expectSameDump(const StatGroup &a, const StatGroup &b,
               bool ignore_skip_diagnostics = false)
{
    const auto da = a.dump();
    const auto db = b.dump();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        ASSERT_EQ(da[i].first, db[i].first);
        if (ignore_skip_diagnostics && isSkipDiagnostic(da[i].first))
            continue;
        EXPECT_EQ(da[i].second, db[i].second) << da[i].first;
    }
}

TEST(Determinism, FastForwardMatchesPerCycleLoop)
{
    // Bit-identical counters with idle-cycle skipping on and off; only
    // the skip diagnostics may differ. HSU_NO_SKIP additionally
    // asserts each predicted gap really was eventless.
    // Sparse occupancy (one warp per SM) so dependent loads leave
    // DRAM-latency gaps the skipper can actually jump. Both scheduler
    // policies: RoundRobin rotates its stall-attribution head every
    // cycle, the hardest case for the skipped-gap stat compensation.
    for (const auto &[warps, sms] : {std::pair{2u, 2u},
                                     // 2 warps/sub-core: stalled gaps
                                     // with a multi-candidate order.
                                     std::pair{8u, 1u}})
    for (const auto policy :
         {SchedulerPolicy::Gto, SchedulerPolicy::RoundRobin}) {
        const KernelTrace trace = sms == 1
            ? loadStallTrace(warps, 41)
            : mixedTrace(warps, 41);
        GpuConfig cfg;
        cfg.numSms = sms;
        cfg.scheduler = policy;
        // Both sides pin the config override: the HSU_NO_SKIP env
        // default is latched once per process and would otherwise turn
        // the skipping side into a second checking-mode run.
        cfg.noSkip = 0;
        cfg.finalize();

        StatGroup skip_stats, noskip_stats;
        const RunResult skip = simulateKernel(cfg, trace, skip_stats);
        GpuConfig noskip_cfg = cfg;
        noskip_cfg.noSkip = 1;
        const RunResult noskip =
            simulateKernel(noskip_cfg, trace, noskip_stats);

        EXPECT_EQ(skip.cycles, noskip.cycles);
        EXPECT_GT(skip_stats.get("sim.ff_cycles"), 0.0);
        EXPECT_EQ(noskip_stats.get("sim.ff_cycles"), 0.0);
        expectSameDump(skip_stats, noskip_stats,
                       /*ignore_skip_diagnostics=*/true);
    }
}

TEST(Determinism, ParallelRunnerMatchesSerial)
{
    // The fan-out executor must be a pure scheduling change: same
    // cycles and same full counter dumps as calling the runner
    // serially, regardless of worker count or job order.
    GpuConfig gpu;
    gpu.numSms = 2;
    gpu.finalize();
    RunnerOptions tiny;
    tiny.ggnnQueries = 32;
    tiny.pointQueries = 64;
    tiny.keyQueries = 64;

    std::vector<SimJob> jobs;
    for (const auto &[algo, id] :
         {std::pair{Algo::Btree, DatasetId::BTree10k},
          std::pair{Algo::Bvhnn, DatasetId::Random10k},
          std::pair{Algo::Flann, DatasetId::Bunny},
          std::pair{Algo::Ggnn, DatasetId::Sift10k}}) {
        SimJob job;
        job.kind = SimJob::Kind::Workload;
        job.algo = algo;
        job.dataset = id;
        job.gpu = gpu;
        job.opts = tiny;
        jobs.push_back(job);
        job.kind = SimJob::Kind::HsuOnly;
        jobs.push_back(job);
    }

    const std::vector<SimJobResult> par = runJobsParallel(jobs, 4);
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimJob &job = jobs[i];
        if (job.kind == SimJob::Kind::Workload) {
            const WorkloadResult serial =
                runWorkload(job.algo, job.dataset, job.gpu, job.opts);
            EXPECT_EQ(serial.base.cycles, par[i].workload.base.cycles);
            EXPECT_EQ(serial.hsu.cycles, par[i].workload.hsu.cycles);
            expectSameDump(serial.baseStats, par[i].workload.baseStats);
            expectSameDump(serial.hsuStats, par[i].workload.hsuStats);
        } else {
            StatGroup stats;
            const RunResult serial = runHsuOnly(
                job.algo, job.dataset, job.gpu, job.opts, stats);
            EXPECT_EQ(serial.cycles, par[i].run.cycles);
            expectSameDump(stats, par[i].stats);
        }
    }
}

} // namespace
} // namespace hsu
