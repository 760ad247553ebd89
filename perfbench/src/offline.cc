/**
 * @file
 * The two offline workloads: fig9_4sm (baseline + HSU pairs on the
 * default 4-SM GPU) and sweep_80sm (HSU datapath / warp-buffer points
 * on the paper's 80-SM chip). Both emit each dataset's semantic trace
 * once per round, then lower and simulate it once per kernel case.
 */

#include <cmath>
#include <iostream>
#include <map>
#include <sstream>

#include "oracle.hh"
#include "search/runner.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "workloads.hh"
#include "workloads/datasets.hh"

namespace perfbench
{

namespace
{

using namespace hsu;

/** One (algorithm, dataset) emission, re-emitted every round. */
struct Emission
{
    Algo algo;
    DatasetId dataset;
    RunnerOptions opts;
    std::shared_ptr<const SemKernelTrace> sem;
    std::size_t semOps = 0; //!< fixed by the warm-up
};

/** One lower + simulate of an emission. */
struct KernelCase
{
    std::string label;
    std::size_t emission = 0;
    Lowering lowering;
    GpuConfig gpu;

    // Fixed by the warm-up; every later repeat must reproduce them.
    bool warmed = false;
    RunResult ref;
    StatGroup refStats;
    std::size_t loweredOps = 0;
};

/** Which indexes the spot checks build, per family. */
struct SpotPlan
{
    std::vector<DatasetId> kdtree;
    std::vector<DatasetId> lbvh;
    std::vector<DatasetId> btree;
    /** Built only when traced, for structures.hnsw_build_s. */
    std::vector<DatasetId> hnsw;
};

RunnerOptions
queries(unsigned n)
{
    RunnerOptions o;
    o.ggnnQueries = o.pointQueries = o.keyQueries = n;
    return o;
}

GpuConfig
gpuWith(unsigned num_sms, bool rt_unit)
{
    GpuConfig g;
    g.numSms = num_sms;
    g.rtUnitEnabled = rt_unit;
    g.finalize();
    return g;
}

bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.cycles == b.cycles && a.instrsIssued == b.instrsIssued &&
           a.hsuCompleted == b.hsuCompleted &&
           a.l2LinesAccessed == b.l2LinesAccessed &&
           a.l1Accesses == b.l1Accesses && a.l1Misses == b.l1Misses &&
           a.dramRowLocality == b.dramRowLocality &&
           a.offloadableFraction == b.offloadableFraction;
}

/** Skip diagnostics: the only stats allowed to differ with noSkip. */
bool
isSkipDiagnostic(const std::string &name)
{
    return name == "sim.ff_cycles" || name == "sim.horizon_cycles";
}

std::vector<std::pair<std::string, double>>
modelStats(const StatGroup &stats)
{
    std::vector<std::pair<std::string, double>> out;
    for (auto &[name, value] : stats.dump()) {
        if (!isSkipDiagnostic(name))
            out.emplace_back(name, value);
    }
    return out;
}

class OfflineWorkload : public Workload
{
  public:
    OfflineWorkload(const Options &opts, std::vector<Emission> emissions,
                    std::vector<KernelCase> cases, SpotPlan spots)
        : opts_(opts), emissions_(std::move(emissions)),
          cases_(std::move(cases)), spots_(std::move(spots))
    {
    }

    void
    setup(Tracer &tracer) override
    {
        for (const DatasetId id : spots_.kdtree) {
            const PointSet &pts = points(tracer, id);
            kdtrees_.emplace(id, tracer.span("structures.kdtree_build", [&] {
                return KdTree::build(pts, 16);
            }));
        }
        for (const DatasetId id : spots_.lbvh) {
            const PointSet &pts = points(tracer, id);
            tracer.span("structures.lbvh_build", [&] {
                const float r = pickRadius(pts);
                radii_[id] = r;
                lbvhs_.emplace(id, Lbvh::buildFromPoints(pts, r));
            });
        }
        for (const DatasetId id : spots_.btree) {
            const std::vector<std::uint32_t> &ks = keys(tracer, id);
            btrees_.emplace(id, tracer.span("structures.btree_build", [&] {
                return buildRankTree(ks);
            }));
        }
        if (tracer.enabled()) {
            // The program builds these inside its own asset cache; the
            // traced run times the builder alone for the layer metric.
            for (const DatasetId id : spots_.hnsw) {
                const PointSet &pts = points(tracer, id);
                tracer.span("structures.hnsw_build", [&] {
                    return HnswGraph::build(pts, datasetInfo(id).metric);
                });
            }
        }
        // First emission of each dataset: builds the program's own
        // memoized indexes (what a user pays before the first result).
        for (Emission &e : emissions_)
            e.sem = emitSemanticShared(e.algo, e.dataset, e.opts);
    }

    std::vector<Item>
    items(Tracer &tracer, Checks &checks) override
    {
        std::vector<Item> out;
        for (Emission &e : emissions_) {
            out.push_back([this, &e, &tracer, &checks](bool) {
                emit(e, tracer, checks);
            });
        }
        for (KernelCase &c : cases_) {
            out.push_back([this, &c, &tracer, &checks](bool) {
                runCase(c, tracer, checks);
            });
        }
        return out;
    }

    void
    finalChecks(Checks &checks) override
    {
        // Exact skipping: one case per run, chosen by the seed, must
        // reproduce the warm-up's cycles and stats single-stepped.
        KernelCase &c = cases_[opts_.seed % cases_.size()];
        GpuConfig g = c.gpu;
        g.noSkip = 1;
        const KernelTrace trace =
            lowerTrace(*emissions_[c.emission].sem, c.lowering);
        StatGroup stats;
        RunResult r = simulateKernel(g, trace, stats);
        r.cycles = checks.corrupt("exact_skipping", r.cycles, r.cycles + 1);
        checks.expect("exact_skipping",
                      sameRun(r, c.ref) &&
                          modelStats(stats) == modelStats(c.refStats),
                      c.label + ": single-stepped run differs (cycles " +
                          std::to_string(r.cycles) + " vs " +
                          std::to_string(c.ref.cycles) + ")");

        for (const auto &[id, tree] : btrees_)
            spotCheckBtree(tree, keys_.at(id), opts_.seed, checks);
        for (const auto &[id, tree] : kdtrees_)
            spotCheckKdTree(tree, points_.at(id), opts_.seed, checks);
        for (const auto &[id, bvh] : lbvhs_) {
            spotCheckLbvh(bvh, points_.at(id), radii_.at(id), opts_.seed,
                          checks);
        }
    }

    void
    endToEnd(const RoundTimes &times, Metrics &out) override
    {
        const double host = times.hostSeconds();
        double cycles = 0;
        std::vector<double> latency_us;
        for (const KernelCase &c : cases_) {
            cycles += static_cast<double>(c.ref.cycles);
            // Simulated kernel time at the model's 1 GHz clock.
            latency_us.push_back(static_cast<double>(c.ref.cycles) / 1e3);
        }
        out.set("host_s", host, "s");
        out.set("sim_mcycles_per_s", cycles / host / 1e6, "Mcycles/s");
        out.set("sim_p50_us", percentile(latency_us, 50.0), "sim_us");
        out.set("sim_p99_us", percentile(latency_us, 99.0), "sim_us");
        printSummary();
    }

    void
    perLayer(const Tracer &tracer, Metrics &out) override
    {
        double sem_ops = 0, lowered_ops = 0, cycles = 0, visited = 0,
               instrs = 0, l1_acc = 0, l1_miss = 0, l2_lines = 0,
               dram_acc = 0, dram_act = 0, beats = 0, rtu_busy = 0,
               sm_cycles = 0;
        for (const Emission &e : emissions_)
            sem_ops += static_cast<double>(e.semOps);
        for (const KernelCase &c : cases_) {
            const StatGroup &s = c.refStats;
            lowered_ops += static_cast<double>(c.loweredOps);
            cycles += static_cast<double>(c.ref.cycles);
            visited += static_cast<double>(c.ref.cycles) -
                       s.get("sim.ff_cycles");
            instrs += c.ref.instrsIssued;
            l1_acc += c.ref.l1Accesses;
            l1_miss += c.ref.l1Misses;
            l2_lines += c.ref.l2LinesAccessed;
            dram_acc += s.get("dram.accesses");
            dram_act += s.get("dram.activations");
            beats += s.get("rtu.completed");
            rtu_busy += s.get("rtu.busy_cycles");
            sm_cycles += static_cast<double>(c.ref.cycles) * c.gpu.numSms;
        }
        const double sim_s = tracer.perRoundSeconds("sim");
        out.set("search.emit_s", tracer.perRoundSeconds("search.emit"), "s");
        out.set("search.emit_calls",
                static_cast<double>(tracer.perRoundCalls("search.emit")),
                "count");
        out.set("search.sem_ops", sem_ops, "count");
        out.set("lower.s", tracer.perRoundSeconds("lower"), "s");
        out.set("lower.calls",
                static_cast<double>(tracer.perRoundCalls("lower")), "count");
        out.set("lower.ops", lowered_ops, "count");
        out.set("sim.s", sim_s, "s");
        out.set("sim.calls",
                static_cast<double>(tracer.perRoundCalls("sim")), "count");
        out.set("sim.cycles", cycles, "cycles");
        out.set("sim.instrs", instrs, "count");
        out.set("sim.ipc", instrs / cycles, "instrs/cycle");
        out.set("sim.visited_cycles", visited, "cycles");
        out.set("sim.ns_per_visited_cycle", sim_s / visited * 1e9, "ns");
        out.set("sim.ns_per_instr", sim_s / instrs * 1e9, "ns");
        out.set("mem.l1_accesses", l1_acc, "count");
        out.set("mem.l1_miss_rate", l1_miss / l1_acc, "ratio");
        out.set("mem.l2_lines", l2_lines, "count");
        out.set("mem.dram_row_locality",
                dram_act > 0 ? dram_acc / dram_act : 0.0, "accesses/row");
        out.set("rtunit.beats", beats, "count");
        out.set("rtunit.busy_frac", rtu_busy / sm_cycles, "ratio");
    }

  private:
    const PointSet &
    points(Tracer &tracer, DatasetId id)
    {
        auto it = points_.find(id);
        if (it == points_.end()) {
            it = points_.emplace(id, tracer.span("workloads.generate", [&] {
                                     return generatePoints(datasetInfo(id));
                                 })).first;
        }
        return it->second;
    }

    const std::vector<std::uint32_t> &
    keys(Tracer &tracer, DatasetId id)
    {
        auto it = keys_.find(id);
        if (it == keys_.end()) {
            it = keys_.emplace(id, tracer.span("workloads.generate", [&] {
                                   return generateKeys(datasetInfo(id));
                               })).first;
        }
        return it->second;
    }

    void
    emit(Emission &e, Tracer &tracer, Checks &checks)
    {
        auto sem = tracer.span("search.emit", [&] {
            return std::make_shared<const SemKernelTrace>(
                emitSemantic(e.algo, e.dataset, e.opts));
        });
        const std::size_t ops = sem->totalOps();
        if (e.semOps == 0)
            e.semOps = ops;
        checks.expect("determinism", ops == e.semOps,
                      "re-emission changed the semantic op count");
        e.sem = std::move(sem);
    }

    void
    runCase(KernelCase &c, Tracer &tracer, Checks &checks)
    {
        const KernelTrace trace = tracer.span("lower", [&] {
            return lowerTrace(*emissions_[c.emission].sem, c.lowering);
        });
        StatGroup stats;
        const RunResult r = tracer.span("sim", [&] {
            return simulateKernel(c.gpu, trace, stats);
        });
        if (!c.warmed) {
            warmUp(c, trace, r, stats, checks);
            return;
        }
        RunResult seen = r;
        seen.cycles =
            checks.corrupt("determinism", seen.cycles, seen.cycles + 1);
        checks.expect("determinism", sameRun(seen, c.ref),
                      c.label + ": repeat differs from the warm-up (cycles " +
                          std::to_string(seen.cycles) + " vs " +
                          std::to_string(c.ref.cycles) + ")");
    }

    /** First run of a case: fix its reference and check the counts
     *  the lowered trace implies. */
    void
    warmUp(KernelCase &c, const KernelTrace &trace, const RunResult &r,
           StatGroup &stats, Checks &checks)
    {
        double issued = 0, beats = 0;
        for (const WarpTrace &w : trace.warps) {
            for (const TraceOp &op : w.ops) {
                const bool memory =
                    op.type == OpType::Load || op.type == OpType::Store;
                issued += memory ? 1.0 : op.count;
                if (op.type == OpType::HsuOp)
                    beats += op.count;
            }
        }
        issued = checks.corrupt("issue_conservation", issued, issued + 1);
        std::ostringstream why;
        why << c.label << ": issued " << r.instrsIssued
            << ", lowered trace implies " << issued;
        checks.expect("issue_conservation", r.instrsIssued == issued,
                      why.str());

        const double completed = stats.get("rtu.completed");
        if (c.gpu.rtUnitEnabled) {
            beats = checks.corrupt("rtu_beats", beats, beats + 1);
            checks.expect("rtu_beats", completed == beats,
                          c.label + ": rtu.completed " +
                              std::to_string(completed) + " vs HsuOp beats " +
                              std::to_string(beats));
        } else {
            const double seen =
                checks.corrupt("rtu_beats_baseline", completed, 1.0);
            checks.expect("rtu_beats_baseline", seen == 0 && beats == 0,
                          c.label + ": baseline run used the RT unit");
        }
        c.ref = r;
        c.refStats = std::move(stats);
        c.loweredOps = trace.totalOps();
        c.warmed = true;
    }

    /** Simulated speedups beside the paper's (Fig 9 cases only). */
    void
    printSummary() const
    {
        // Paper Fig 9 geomean speedups per family, the only external
        // reference; the model is not validated against hardware.
        static const std::map<Algo, double> kPaper = {
            {Algo::Ggnn, 1.248}, {Algo::Flann, 1.164},
            {Algo::Bvhnn, 1.339}, {Algo::Btree, 1.135}};
        std::map<Algo, std::vector<double>> speedups;
        for (std::size_t i = 0; i + 1 < cases_.size(); ++i) {
            const KernelCase &base = cases_[i];
            const KernelCase &hsu = cases_[i + 1];
            if (base.emission != hsu.emission || base.gpu.rtUnitEnabled ||
                !hsu.gpu.rtUnitEnabled)
                continue;
            speedups[emissions_[base.emission].algo].push_back(
                static_cast<double>(base.ref.cycles) /
                static_cast<double>(hsu.ref.cycles));
        }
        for (const auto &[algo, values] : speedups) {
            double log_sum = 0;
            for (const double v : values)
                log_sum += std::log(v);
            std::cout << "speedup " << toString(algo) << ": simulated "
                      << std::exp(log_sum / static_cast<double>(values.size()))
                      << " (geomean of " << values.size()
                      << "), paper Fig 9 " << kPaper.at(algo) << "\n";
        }
    }

    Options opts_;
    std::vector<Emission> emissions_;
    std::vector<KernelCase> cases_;
    SpotPlan spots_;
    std::map<DatasetId, PointSet> points_;
    std::map<DatasetId, std::vector<std::uint32_t>> keys_;
    std::map<DatasetId, KdTree> kdtrees_;
    std::map<DatasetId, Lbvh> lbvhs_;
    std::map<DatasetId, float> radii_;
    std::map<DatasetId, BTree> btrees_;
};

} // namespace

std::unique_ptr<Workload>
makeFig9(const Options &opts)
{
    // One dataset per family, plus the memory-bound B+1M and the
    // 960-dimensional GIST set. Query counts keep each simulation
    // around 0.1-0.5 s so every case repeats several times per run.
    std::vector<Emission> emissions = {
        {Algo::Ggnn, DatasetId::Sift10k, queries(32), {}, 0},
        {Algo::Ggnn, DatasetId::Gist, queries(8), {}, 0},
        {Algo::Flann, DatasetId::Bunny, queries(1024), {}, 0},
        {Algo::Bvhnn, DatasetId::Dragon, queries(1024), {}, 0},
        {Algo::Btree, DatasetId::BTree10k, queries(2048), {}, 0},
        {Algo::Btree, DatasetId::BTree1m, queries(512), {}, 0},
    };
    std::vector<KernelCase> cases;
    for (std::size_t e = 0; e < emissions.size(); ++e) {
        const std::string label =
            workloadLabel(emissions[e].algo,
                          datasetInfo(emissions[e].dataset));
        KernelCase base;
        base.label = label + " base";
        base.emission = e;
        base.lowering = Lowering::baseline();
        base.gpu = gpuWith(4, false);
        KernelCase hsu = base;
        hsu.label = label + " hsu";
        hsu.lowering = Lowering::hsu();
        hsu.gpu = gpuWith(4, true);
        cases.push_back(std::move(base));
        cases.push_back(std::move(hsu));
    }
    SpotPlan spots;
    spots.kdtree = {DatasetId::Bunny};
    spots.lbvh = {DatasetId::Dragon};
    spots.btree = {DatasetId::BTree10k, DatasetId::BTree1m};
    spots.hnsw = {DatasetId::Sift10k, DatasetId::Gist};
    return std::make_unique<OfflineWorkload>(opts, std::move(emissions),
                                             std::move(cases),
                                             std::move(spots));
}

std::unique_ptr<Workload>
makeSweep(const Options &opts)
{
    // Few warps on 80 SMs: most SMs idle most cycles, so per-SM tick
    // cost and idle skipping dominate. Each family sweeps the knob its
    // paper figure varies: datapath width for GGNN (Fig 10), warp
    // buffer entries for FLANN / BVH-NN (Fig 11), key-compare width
    // for the B+tree.
    std::vector<Emission> emissions = {
        {Algo::Ggnn, DatasetId::Sift10k, queries(4), {}, 0},
        {Algo::Flann, DatasetId::Bunny, queries(512), {}, 0},
        {Algo::Bvhnn, DatasetId::Bunny, queries(512), {}, 0},
        {Algo::Btree, DatasetId::BTree10k, queries(512), {}, 0},
    };
    struct Point
    {
        std::size_t emission;
        unsigned euclidWidth;
        unsigned keyCompareWidth;
        unsigned warpBuffer;
    };
    const Point points[] = {
        {0, 4, 36, 8},  {0, 16, 36, 8}, {1, 16, 36, 1}, {1, 16, 36, 8},
        {2, 16, 36, 1}, {2, 16, 36, 8}, {3, 16, 9, 8},  {3, 16, 36, 8},
    };
    std::vector<KernelCase> cases;
    for (const Point &p : points) {
        KernelCase c;
        c.emission = p.emission;
        c.gpu = gpuWith(80, true);
        c.gpu.datapath.euclidWidth = p.euclidWidth;
        c.gpu.datapath.keyCompareWidth = p.keyCompareWidth;
        c.gpu.warpBufferSize = p.warpBuffer;
        c.lowering = Lowering::hsu(c.gpu.datapath);
        const Emission &e = emissions[p.emission];
        c.label = workloadLabel(e.algo, datasetInfo(e.dataset)) + " w" +
                  std::to_string(p.euclidWidth) + "/k" +
                  std::to_string(p.keyCompareWidth) + " wb" +
                  std::to_string(p.warpBuffer);
        cases.push_back(std::move(c));
    }
    SpotPlan spots;
    spots.kdtree = {DatasetId::Bunny};
    spots.lbvh = {DatasetId::Bunny};
    spots.btree = {DatasetId::BTree10k};
    spots.hnsw = {DatasetId::Sift10k};
    return std::make_unique<OfflineWorkload>(opts, std::move(emissions),
                                             std::move(cases),
                                             std::move(spots));
}

} // namespace perfbench
