/**
 * @file
 * Intra-simulation parallelism benchmark: simulate-phase wall time and
 * cycles/second for each fig-9 workload at HSU_SIM_JOBS in {1, 2, 4, 8}
 * (GpuConfig::simJobs; the fleet executor is bypassed so each
 * simulation owns the machine). Every level runs the same event-horizon
 * loop; jobs=1 runs it with no TickTeam, and "serial" below (and in
 * BENCH_sim.json's "geomean_speedup_vs_serial") means that level.
 * Emits BENCH_sim.json with per-workload timings and the fleet geomean
 * speedup per job level, and verifies that every job level reproduces
 * the jobs=1 results bit-identically.
 *
 * --smoke: CI gate mode. One quick workload at jobs in {1, 8}; exits
 * nonzero when the parallel run is slower than serial beyond a slack
 * allowance (or on any bit-identity mismatch, as always).
 */

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "workloads/datasets.hh"

using namespace hsu;

namespace
{

/** Describe the first difference between two runs, or "" when they are
 *  bit-identical (skip diagnostics excluded). */
std::string
firstDifference(const WorkloadResult &ref, const WorkloadResult &got)
{
    std::ostringstream why;
    const auto runDiff = [&](const char *side, const RunResult &a,
                             const RunResult &b) {
        if (a.cycles != b.cycles)
            why << side << " cycles " << a.cycles << " vs " << b.cycles;
        else if (a.instrsIssued != b.instrsIssued)
            why << side << " instrs " << a.instrsIssued << " vs "
                << b.instrsIssued;
        else if (a.hsuCompleted != b.hsuCompleted)
            why << side << " hsu ops " << a.hsuCompleted << " vs "
                << b.hsuCompleted;
    };
    runDiff("base", ref.base, got.base);
    runDiff("hsu", ref.hsu, got.hsu);
    if (!why.str().empty())
        return why.str();

    const auto statDiff = [&](const char *side, const StatGroup &a,
                              const StatGroup &b) {
        std::map<std::string, double> ma, mb;
        for (const auto &[name, value] : a.dump())
            if (!isSkipDiagnostic(name))
                ma.emplace(name, value);
        for (const auto &[name, value] : b.dump())
            if (!isSkipDiagnostic(name))
                mb.emplace(name, value);
        if (ma.size() != mb.size()) {
            why << side << " stat count " << ma.size() << " vs "
                << mb.size();
            return;
        }
        for (const auto &[name, value] : ma) {
            const auto it = mb.find(name);
            if (it == mb.end()) {
                why << side << " stat " << name << " missing";
                return;
            }
            if (it->second != value) {
                why << side << " stat " << name << " " << value
                    << " vs " << it->second;
                return;
            }
        }
    };
    statDiff("base", ref.baseStats, got.baseStats);
    if (why.str().empty())
        statDiff("hsu", ref.hsuStats, got.hsuStats);
    return why.str();
}

struct LevelTiming
{
    unsigned jobs = 0;
    double simSeconds = 0.0;
    double cyclesPerSec = 0.0;
};

struct WorkloadTiming
{
    std::string label;
    std::uint64_t totalCycles = 0; //!< base + hsu (identical per level)
    std::vector<LevelTiming> levels;
};

double
simSecondsNow()
{
    return pipelinePhaseReport().simulateSeconds;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perf_sim",
                   "intra-simulation parallelism sweep over "
                   "HSU_SIM_JOBS levels, with bit-identity checks");
    bool smoke = false;
    bool quick = false;
    args.flag(smoke, "smoke",
              "CI gate: one quick workload at jobs in {1, 8}");
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "shrink per-workload query counts ~4x");
    if (!args.parse(argc, argv))
        return args.exitCode();

    const std::vector<unsigned> levels =
        smoke ? std::vector<unsigned>{1, 8}
              : std::vector<unsigned>{1, 2, 4, 8};
    const std::vector<std::pair<Algo, DatasetId>> workloads =
        smoke ? std::vector<std::pair<Algo, DatasetId>>{
                    {Algo::Btree, DatasetId::BTree10k}}
              : bench::allWorkloads();

    Table t("Intra-sim parallelism: per-workload results "
            "(identical across HSU_SIM_JOBS levels by contract)",
            {"Workload", "Base cycles", "HSU cycles", "Levels checked"});

    std::vector<WorkloadTiming> timings;
    bool identical = true;
    for (const auto &[algo, id] : workloads) {
        const DatasetInfo &info = datasetInfo(id);
        const RunnerOptions opts = bench::benchOptions(info);

        WorkloadTiming wt;
        WorkloadResult ref;
        for (const unsigned jobs : levels) {
            GpuConfig cfg = bench::defaultGpu();
            cfg.simJobs = jobs;
            const double before = simSecondsNow();
            WorkloadResult res = runWorkload(algo, id, cfg, opts);
            const double secs = simSecondsNow() - before;

            const std::uint64_t cycles =
                res.base.cycles + res.hsu.cycles;
            LevelTiming lt;
            lt.jobs = jobs;
            lt.simSeconds = secs;
            lt.cyclesPerSec =
                secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
            wt.levels.push_back(lt);

            if (jobs == levels.front()) {
                wt.label = res.label;
                wt.totalCycles = cycles;
                ref = std::move(res);
            } else {
                const std::string diff = firstDifference(ref, res);
                if (!diff.empty()) {
                    identical = false;
                    std::cerr << "[perf_sim] MISMATCH " << res.label
                              << " jobs=" << jobs << ": " << diff
                              << "\n";
                }
            }
            // Wall-clock varies run to run: stderr, not stdout.
            std::cerr << "[perf_sim] " << wt.label << " jobs=" << jobs
                      << " simulate " << Table::num(secs, 3) << "s ("
                      << Table::num(lt.cyclesPerSec / 1e6, 3)
                      << " Mcycles/s)\n";
        }
        t.addRow({wt.label, std::to_string(ref.base.cycles),
                  std::to_string(ref.hsu.cycles),
                  std::to_string(levels.size())});
        timings.push_back(std::move(wt));
    }
    t.print(std::cout);

    // Fleet geomean speedup per job level, relative to jobs=1.
    std::map<unsigned, double> geo;
    for (std::size_t li = 1; li < levels.size(); ++li) {
        std::vector<double> speedups;
        for (const WorkloadTiming &wt : timings) {
            const double serial = wt.levels[0].simSeconds;
            const double par = wt.levels[li].simSeconds;
            speedups.push_back(par > 0.0 ? serial / par : 0.0);
        }
        geo[levels[li]] = bench::geomean(speedups);
        std::cerr << "[perf_sim] geomean speedup jobs="
                  << levels[li] << ": "
                  << Table::num(geo[levels[li]], 3) << "x\n";
    }

    std::ofstream out("BENCH_sim.json");
    if (!out) {
        hsu_warn("cannot write BENCH_sim.json");
    } else {
        out.precision(6);
        out << std::fixed;
        out << "{\n  \"bench\": \"perf_sim\",\n  \"smoke\": "
            << (smoke ? "true" : "false") << ",\n  \"bit_identical\": "
            << (identical ? "true" : "false") << ",\n"
            << "  \"workloads\": [\n";
        for (std::size_t w = 0; w < timings.size(); ++w) {
            const WorkloadTiming &wt = timings[w];
            out << "    {\n      \"label\": \"" << wt.label
                << "\",\n      \"total_cycles\": " << wt.totalCycles
                << ",\n      \"levels\": [\n";
            for (std::size_t l = 0; l < wt.levels.size(); ++l) {
                const LevelTiming &lt = wt.levels[l];
                out << "        {\"jobs\": " << lt.jobs
                    << ", \"simulate_seconds\": " << lt.simSeconds
                    << ", \"cycles_per_sec\": " << lt.cyclesPerSec
                    << "}" << (l + 1 < wt.levels.size() ? "," : "")
                    << "\n";
            }
            out << "      ]\n    }"
                << (w + 1 < timings.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"geomean_speedup_vs_serial\": {";
        bool first = true;
        for (const auto &[jobs, g] : geo) {
            out << (first ? "" : ", ") << "\"" << jobs << "\": " << g;
            first = false;
        }
        out << "}\n}\n";
    }

    if (!identical) {
        std::cerr << "[perf_sim] FAIL: results differ across "
                     "HSU_SIM_JOBS levels\n";
        return 1;
    }
    if (smoke) {
        // The gate tolerates scheduling noise but catches the parallel
        // path regressing badly (e.g. barrier overhead swamping work).
        const double serial = timings[0].levels[0].simSeconds;
        const double par = timings[0].levels.back().simSeconds;
        const double allowed = serial * 1.25 + 0.05;
        if (par > allowed) {
            std::cerr << "[perf_sim] FAIL: parallel simulate "
                      << Table::num(par, 3) << "s exceeds gate "
                      << Table::num(allowed, 3) << "s (serial "
                      << Table::num(serial, 3) << "s)\n";
            return 1;
        }
        std::cerr << "[perf_sim] smoke gate passed: parallel "
                  << Table::num(par, 3) << "s vs serial "
                  << Table::num(serial, 3) << "s\n";
    }
    return 0;
}
