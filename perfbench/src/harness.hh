/**
 * @file
 * Measurement harness shared by the benchmark's workloads: clocks, the
 * span recorder of the traced mode, the output checks, the interleaved
 * round loop and the metric set printed as the result line.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock. */
double nowSeconds();

/** Seconds since the process started (captured before main). */
double sinceProcessStart();

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Name of the check whose input is deliberately corrupted. */
    std::string corrupt;
    /** Commit or source digest of the measured tree (manifest only). */
    std::string source = "unknown";
};

/**
 * Spans around the benchmark's calls into each layer. Disabled in the
 * untraced mode, where span() is a plain call. Spans stay in memory and
 * are summarised when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), recording_(enabled)
    {
    }

    bool enabled() const { return enabled_; }

    /** Run @p fn inside a span named @p layer (when recording). */
    template <typename Fn>
    decltype(auto)
    span(const char *layer, Fn &&fn)
    {
        if (!recording_)
            return fn();
        const Scope scope(*this, layer);
        return fn();
    }

    /** Records spans only while alive and @p on (traced runs only). */
    class ModeGuard
    {
      public:
        ModeGuard(Tracer &t, bool on) : t_(t), saved_(t.recording_)
        {
            t.recording_ = t.enabled_ && on;
        }
        ~ModeGuard() { t_.recording_ = saved_; }
        ModeGuard(const ModeGuard &) = delete;
        ModeGuard &operator=(const ModeGuard &) = delete;

      private:
        Tracer &t_;
        bool saved_;
    };

    /** Mark the start of timed round @p round (-1: outside rounds). */
    void setRound(int round) { round_ = round; }

    /** Total seconds of the spans named @p layer, outside rounds. */
    double setupSeconds(const std::string &layer) const;

    /** Median over rounds of the per-round total of @p layer, and the
     *  per-round call count (the same in every round). */
    double perRoundSeconds(const std::string &layer) const;
    std::uint64_t perRoundCalls(const std::string &layer) const;

  private:
    struct Span
    {
        const char *layer;
        double start;
        double end;
        int round;
    };

    class Scope
    {
      public:
        Scope(Tracer &t, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int index_;
    };

    bool enabled_;
    bool recording_;
    int round_ = -1;
    std::vector<Span> spans_;
};

/**
 * The output checks. Each check has a name; --corrupt NAME feeds that
 * check one deliberately wrong value through corrupt(), so a run that
 * still passes it shows a check that cannot fail.
 */
class Checks
{
  public:
    explicit Checks(std::string corrupt) : corrupt_(std::move(corrupt)) {}

    /** @p value, or @p wrong when check @p name is being corrupted. */
    template <typename T>
    T
    corrupt(const char *name, T value, T wrong)
    {
        return corrupt_ == name ? wrong : value;
    }

    /** True when check @p name is the corrupted one. */
    bool corrupting(const char *name) const { return corrupt_ == name; }

    /** Record one evaluation of check @p name. */
    void expect(const char *name, bool ok, const std::string &detail);

    bool allPassed() const { return failures_ == 0; }

    /** True when --corrupt named a check this run evaluated. */
    bool corruptedCheckRan() const;

    /** One "name: evaluations" line per check, for stderr. */
    std::string summary() const;

  private:
    std::string corrupt_;
    std::map<std::string, std::uint64_t> evaluated_;
    std::uint64_t failures_ = 0;
};

/** Metric name -> (value, unit), printed in name order. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/**
 * One timed operation of a workload: item(traced) performs it once and
 * checks its result against the warm-up's.
 */
using Item = std::function<void(bool traced)>;

/** Host times of every item, [item][repeat], and how many rounds ran. */
struct RoundTimes
{
    std::vector<std::vector<double>> untraced;
    std::vector<std::vector<double>> traced;
    std::uint64_t rounds = 0;

    /** Sum over items of each item's fastest untraced repeat. */
    double hostSeconds() const;
    /** The same estimator over the traced repeats (0 when none). */
    double tracedHostSeconds() const;
};

/**
 * Run whole rounds of every item, in an order rotated by one item each
 * round, until @p seconds have passed (at least one round). In traced
 * runs the rounds alternate untraced / traced, so both estimators see
 * the same host conditions.
 */
RoundTimes runRounds(std::vector<Item> &items, double seconds,
                     Tracer &tracer);

/** Nearest-rank percentile of @p values (p in [0, 100]). */
double percentile(std::vector<double> values, double p);

/** Peak resident set of this process, in MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
