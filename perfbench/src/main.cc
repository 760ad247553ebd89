/**
 * @file
 * hsu_perfbench: one run of one benchmark workload.
 *
 *   hsu_perfbench --workload fig9_4sm|sweep_80sm|serve_2x2 --seed N
 *                 --seconds S --trace 0|1 [--corrupt CHECK]
 *                 [--source ID]
 *
 * Prints a run manifest, the checks' summary on stderr, and as its last
 * stdout line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer ones. Exits 1 when a check fails, 2 on a usage error.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

const std::vector<std::pair<const char *, const char *>> &
perLayerCatalog()
{
    static const std::vector<std::pair<const char *, const char *>> k = {
        {"workloads.generate_s", "s"},
        {"structures.hnsw_build_s", "s"},
        {"structures.kdtree_build_s", "s"},
        {"structures.lbvh_build_s", "s"},
        {"structures.btree_build_s", "s"},
        {"search.emit_s", "s"},
        {"search.emit_calls", "count"},
        {"search.sem_ops", "count"},
        {"lower.s", "s"},
        {"lower.calls", "count"},
        {"lower.ops", "count"},
        {"sim.s", "s"},
        {"sim.calls", "count"},
        {"sim.cycles", "cycles"},
        {"sim.instrs", "count"},
        {"sim.ipc", "instrs/cycle"},
        {"sim.visited_cycles", "cycles"},
        {"sim.ns_per_visited_cycle", "ns"},
        {"sim.ns_per_instr", "ns"},
        {"mem.l1_accesses", "count"},
        {"mem.l1_miss_rate", "ratio"},
        {"mem.l2_lines", "count"},
        {"mem.dram_row_locality", "accesses/row"},
        {"rtunit.beats", "count"},
        {"rtunit.busy_frac", "ratio"},
        {"serve.launches", "count"},
        {"serve.mean_batch", "requests"},
        {"serve.cache_hit_rate", "ratio"},
        {"serve.queue_wait_p50_us", "sim_us"},
        {"serve.queue_wait_p99_us", "sim_us"},
        {"serve.loop_s", "s"},
        {"shard.partition_s", "s"},
        {"shard.fanout_mean", "shards"},
        {"shard.subqueries", "count"},
        {"trace.overhead_pct", "%"},
    };
    return k;
}

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hsu_perfbench: " << why
              << "\nusage: hsu_perfbench --workload fig9_4sm|sweep_80sm|"
                 "serve_2x2 --seed N --seconds S --trace 0|1 "
                 "[--corrupt CHECK] [--source ID]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0))
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            o.trace = value == "1";
        } else if (flag == "--corrupt") {
            o.corrupt = value;
        } else if (flag == "--source") {
            o.source = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** HSU_* knobs change what is measured (HSU_INDEX_CACHE makes set-up
 *  bimodal; a malformed HSU_JOBS silently falls back): refuse them. */
void
refuseHsuEnvironment()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "HSU_", 4) == 0) {
            std::cerr << "hsu_perfbench: refusing to run with "
                      << std::string(*e).substr(0, std::strcspn(*e, "="))
                      << " set\n";
            std::exit(2);
        }
    }
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "fig9_4sm")
        return makeFig9(o);
    if (o.workload == "sweep_80sm")
        return makeSweep(o);
    if (o.workload == "serve_2x2")
        return makeServe(o);
    usage("unknown workload " + o.workload);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    refuseHsuEnvironment();
    const Options opts = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(opts);

    std::cout << "manifest: {\"source\": \"" << opts.source
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"host_cores\": " << std::thread::hardware_concurrency()
              << ", \"workload\": \"" << opts.workload
              << "\", \"seed\": " << opts.seed
              << ", \"seconds\": " << opts.seconds
              << ", \"trace\": " << (opts.trace ? 1 : 0) << "}\n";

    Tracer tracer(opts.trace);
    Checks checks(opts.corrupt);

    workload->setup(tracer);
    const double setup_s = sinceProcessStart();

    std::vector<Item> items = workload->items(tracer, checks);
    {
        // Untimed warm-up: fixes every item's reference result.
        const Tracer::ModeGuard off(tracer, false);
        for (Item &item : items)
            item(false);
    }
    const RoundTimes times = runRounds(items, opts.seconds, tracer);
    workload->finalChecks(checks);

    Metrics metrics;
    if (opts.trace) {
        for (const auto &[name, unit] : perLayerCatalog())
            metrics.set(name, 0.0, unit);
        metrics.set("workloads.generate_s",
                    tracer.setupSeconds("workloads.generate"), "s");
        for (const char *s : {"hnsw", "kdtree", "lbvh", "btree"}) {
            const std::string layer = std::string("structures.") + s;
            metrics.set(layer + "_build_s",
                        tracer.setupSeconds(layer + "_build"), "s");
        }
        metrics.set("shard.partition_s",
                    tracer.setupSeconds("shard.partition"), "s");
        workload->perLayer(tracer, metrics);
        const double untraced = times.hostSeconds();
        metrics.set("trace.overhead_pct",
                    (times.tracedHostSeconds() / untraced - 1.0) * 100.0,
                    "%");
        std::cout << "trace overhead: traced host_s "
                  << times.tracedHostSeconds() << " vs untraced "
                  << untraced << "\n";
    } else {
        workload->endToEnd(times, metrics);
        metrics.set("setup_s", setup_s, "s");
        metrics.set("peak_rss_mb", peakRssMiB(), "MiB");
    }

    std::cerr << "checks:\n" << checks.summary();
    bool correct = checks.allPassed();
    if (!opts.corrupt.empty() && !checks.corruptedCheckRan()) {
        std::cerr << "--corrupt " << opts.corrupt
                  << " names no check this workload runs\n";
        correct = false;
    }
    if (!correct)
        return 1;
    std::cout << "{\"correct\": true, \"attempted\": "
              << times.rounds * items.size() << ", \"failed\": 0, "
              << "\"metrics\": " << metrics.json() << "}" << std::endl;
    return 0;
}
