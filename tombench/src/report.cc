#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace tombench {

namespace {

/** 1-based nearest rank of percentile @p pct over @p n samples. */
size_t
nearestRank(int pct, size_t n)
{
    size_t rank = (size_t(pct) * n + 99) / 100;
    return std::max<size_t>(rank, 1);
}

bool
isNameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string
formatValue(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

int
tailPercentile(size_t n, int cap)
{
    for (int pct : {99, 95, 90, 75, 50}) {
        if (pct <= cap && n >= 1 && n - nearestRank(pct, n) >= 10)
            return pct;
    }
    return 0;
}

Summary
summarize(std::vector<double> &samples, int cap)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = samples[nearestRank(50, s.n) - 1];
    s.tailPct = tailPercentile(s.n, cap);
    s.tail = s.tailPct > 0 ? samples[nearestRank(s.tailPct, s.n) - 1] : s.p50;
    s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
             double(s.n);
    return s;
}

double
median(std::vector<double> values)
{
    return summarize(values).p50;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    char first = name.front();
    if (first == '_' || first == '.' || first == '-')
        return false;
    return std::all_of(name.begin(), name.end(), isNameChar);
}

bool
validMetricUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isNameChar(c) || c == '/' || c == '%';
    });
}

void
Outcome::add(const std::string &name, const std::string &unit, double value,
             const std::string &note)
{
    if (!validMetricName(name) || !validMetricUnit(unit))
        throw std::invalid_argument("bad metric name or unit: " + name +
                                    " [" + unit + "]");
    for (const auto &m : metrics)
        if (m.name == name)
            throw std::invalid_argument("duplicate metric: " + name);
    if (!std::isfinite(value)) {
        lines.push_back("finding: " + name + " is not finite; reported as 0");
        value = 0.0;
    }
    metrics.push_back({name, unit, value, note});
}

std::string
resultJson(const Outcome &outcome, const std::string &prefix)
{
    std::string out = "{\"correct\": ";
    out += outcome.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(outcome.attempted);
    out += ", \"failed\": " + std::to_string(outcome.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        if (i > 0)
            out += ", ";
        out += "\"" + prefix + m.name + "\": {\"value\": " +
               formatValue(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

std::string
renderTable(const Outcome &outcome)
{
    std::string out = "== " + outcome.workload + " ==\n";
    char buf[256];
    for (const Metric &m : outcome.metrics) {
        std::snprintf(buf, sizeof buf, "  %-34s %16.6g %-6s %s\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      m.note.c_str());
        out += buf;
    }
    double failed_frac = outcome.attempted > 0
                             ? double(outcome.failed) /
                                   double(outcome.attempted)
                             : 0.0;
    std::snprintf(buf, sizeof buf, "  %-34s %16.6g %-6s (%llu of %llu)\n",
                  "failed_frac", failed_frac, "frac",
                  (unsigned long long)outcome.failed,
                  (unsigned long long)outcome.attempted);
    out += buf;
    for (const auto &line : outcome.lines)
        out += "  " + line + "\n";
    for (const auto &line : outcome.mismatches)
        out += "  MISMATCH: " + line + "\n";
    return out;
}

} // namespace tombench
