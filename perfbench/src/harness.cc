#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include <sys/resource.h>

namespace perfbench
{

namespace
{

const double kProcessStart = nowSeconds();

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
sumOfMins(const std::vector<std::vector<double>> &times)
{
    double total = 0.0;
    for (const auto &t : times)
        total += minOf(t);
    return total;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
sinceProcessStart()
{
    return nowSeconds() - kProcessStart;
}

Tracer::Scope::Scope(Tracer &t, const char *layer) : t_(t)
{
    index_ = static_cast<int>(t_.spans_.size());
    t_.spans_.push_back(Span{layer, nowSeconds(), 0.0, t_.round_});
}

Tracer::Scope::~Scope()
{
    t_.spans_[static_cast<std::size_t>(index_)].end = nowSeconds();
}

double
Tracer::setupSeconds(const std::string &layer) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.round < 0 && layer == s.layer)
            total += s.end - s.start;
    }
    return total;
}

double
Tracer::perRoundSeconds(const std::string &layer) const
{
    std::map<int, double> per_round;
    for (const Span &s : spans_) {
        if (s.round < 0)
            continue;
        double &total = per_round[s.round];
        if (layer == s.layer)
            total += s.end - s.start;
    }
    std::vector<double> totals;
    for (const auto &[round, total] : per_round)
        totals.push_back(total);
    return percentile(totals, 50.0);
}

std::uint64_t
Tracer::perRoundCalls(const std::string &layer) const
{
    std::map<int, std::uint64_t> per_round;
    for (const Span &s : spans_) {
        if (s.round >= 0 && layer == s.layer)
            ++per_round[s.round];
    }
    return per_round.empty() ? 0 : per_round.begin()->second;
}

void
Checks::expect(const char *name, bool ok, const std::string &detail)
{
    ++evaluated_[name];
    if (!ok) {
        ++failures_;
        std::cerr << "check " << name << " FAILED: " << detail << "\n";
    }
}

bool
Checks::corruptedCheckRan() const
{
    return evaluated_.count(corrupt_) > 0;
}

std::string
Checks::summary() const
{
    std::ostringstream out;
    for (const auto &[name, count] : evaluated_)
        out << "  " << name << ": " << count << " evaluations\n";
    return out.str();
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{";
    bool first = true;
    for (const auto &[name, vu] : values_) {
        out << (first ? "" : ", ") << "\"" << name
            << "\": {\"value\": "
            << (std::isfinite(vu.first) ? vu.first : 0.0)
            << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    out << "}";
    return out.str();
}

double
RoundTimes::hostSeconds() const
{
    return sumOfMins(untraced);
}

double
RoundTimes::tracedHostSeconds() const
{
    return sumOfMins(traced);
}

RoundTimes
runRounds(std::vector<Item> &items, double seconds, Tracer &tracer)
{
    RoundTimes out;
    out.untraced.resize(items.size());
    out.traced.resize(items.size());
    const double deadline = nowSeconds() + seconds;
    int traced_round = 0;
    do {
        const bool traced = tracer.enabled() && out.rounds % 2 == 1;
        tracer.setRound(traced ? traced_round++ : -1);
        const Tracer::ModeGuard mode(tracer, traced);
        for (std::size_t k = 0; k < items.size(); ++k) {
            const std::size_t i = (k + out.rounds) % items.size();
            const double start = nowSeconds();
            items[i](traced);
            const double elapsed = nowSeconds() - start;
            (traced ? out.traced : out.untraced)[i].push_back(elapsed);
        }
        ++out.rounds;
    } while (nowSeconds() < deadline ||
             (tracer.enabled() && out.rounds < 2));
    tracer.setRound(-1);
    return out;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[idx - 1];
}

double
peakRssMiB()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
