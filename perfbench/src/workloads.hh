/**
 * @file
 * The benchmark's three workloads behind one interface. main() times
 * setup() from process start as setup_s, runs every item once untimed
 * (the warm-up, which also fixes each item's reference result), runs
 * the interleaved rounds, then asks the workload for its remaining
 * checks and its metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <vector>

#include "harness.hh"

namespace perfbench
{

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate the inputs and build every index the items use. */
    virtual void setup(Tracer &tracer) = 0;

    /** The timed operations (valid while the workload lives). */
    virtual std::vector<Item> items(Tracer &tracer, Checks &checks) = 0;

    /** Checks that run once, after the rounds (not timed). */
    virtual void finalChecks(Checks &checks) = 0;

    /** host_s, sim_mcycles_per_s and the simulated latencies, from the
     *  untraced rounds (main adds setup_s and peak_rss_mb). */
    virtual void endToEnd(const RoundTimes &times, Metrics &out) = 0;

    /** The workload's per-layer metrics, from the traced rounds. */
    virtual void perLayer(const Tracer &tracer, Metrics &out) = 0;
};

std::unique_ptr<Workload> makeFig9(const Options &opts);
std::unique_ptr<Workload> makeSweep(const Options &opts);
std::unique_ptr<Workload> makeServe(const Options &opts);

/** Per-layer metric names every workload reports, with their units;
 *  a layer a workload does not exercise reads 0. */
const std::vector<std::pair<const char *, const char *>> &
perLayerCatalog();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
