/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Every bench prints the same rows/series the paper reports, plus
 * the paper's numbers for side-by-side comparison. Workload sizes
 * default to laptop scale and grow with the PSTAT_SCALE environment
 * variable (e.g. PSTAT_SCALE=8 approaches paper scale).
 *
 * Benches additionally emit machine-readable results: WallTimer
 * measures wall-clock phases, Json builds a lightweight JSON object,
 * and writeBenchJson() lands it in BENCH_<name>.json (or
 * $PSTAT_JSON_DIR/BENCH_<name>.json) so perf/accuracy trajectories
 * can be recorded across commits.
 */

#ifndef PSTAT_BENCH_BENCH_UTIL_HH
#define PSTAT_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "engine/env.hh"
#include "engine/format_registry.hh"

namespace pstat::bench
{

/**
 * Peak resident set size of the process so far, in KiB (ru_maxrss).
 * Monotone over the process lifetime, so phase-local deltas need a
 * reading before and after the phase.
 */
inline size_t
peakRssKib()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<size_t>(usage.ru_maxrss);
}

/** Read an integer environment override. */
inline int
envInt(const char *name, int fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::atoi(value) : fallback;
}

/** Read a double environment override. */
inline double
envDouble(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::atof(value) : fallback;
}

/**
 * The summation policy of the p-value plans of fig09, fig11, fig16
 * and fig17: PSTAT_COMPENSATED, strictly parsed like every knob in
 * engine/env.hh and read once per bench process (so a malformed value
 * warns once). Unset or empty is Plain; a malformed value keeps
 * Plain. The benches record it in the plans they build, so the
 * variable moves the same bench outputs as ever while the library
 * never reads it.
 */
inline engine::SumPolicy
sumPolicy()
{
    static const engine::SumPolicy policy = [] {
        const char *env = std::getenv("PSTAT_COMPENSATED");
        if (env == nullptr || env[0] == '\0')
            return engine::SumPolicy::Plain;
        const auto parsed = engine::parseBool(env);
        if (!parsed) {
            std::fprintf(stderr,
                         "pstat: ignoring invalid PSTAT_COMPENSATED="
                         "\"%s\" (want 0/1/true/false/yes/no/on/off)\n",
                         env);
            return engine::SumPolicy::Plain;
        }
        return *parsed ? engine::SumPolicy::Compensated
                       : engine::SumPolicy::Plain;
    }();
    return policy;
}

/** Global workload multiplier (PSTAT_SCALE, default 1.0). */
inline double
scale()
{
    return envDouble("PSTAT_SCALE", 1.0);
}

/** n scaled by PSTAT_SCALE with a floor of `minimum`. */
inline int
scaled(int n, int minimum = 1)
{
    const double s = static_cast<double>(n) * scale();
    return s < minimum ? minimum : static_cast<int>(s);
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

/**
 * Index of the entry whose .label equals `label`, for headline
 * prints that must survive series reordering (positional indexing
 * silently misattributes numbers when a sweep grows). Exits loudly
 * when the label is missing.
 */
template <typename Entries>
size_t
indexOfLabel(const Entries &entries, const std::string &label)
{
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].label == label)
            return i;
    }
    std::fprintf(stderr, "missing series: %s\n", label.c_str());
    std::exit(1);
}

/** Wall-clock stopwatch (steady clock), running from construction. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Milliseconds elapsed since construction / last restart. */
    double
    elapsedMs() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::milli>(now - start_)
            .count();
    }

    void restart() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Summary of repeated timing runs (timeStats). */
struct TimeStats
{
    double min_ms = 0.0;    //!< fastest rep — the JSON headline field
    double median_ms = 0.0; //!< median rep (mean of the middle pair)
    double mean_ms = 0.0;   //!< arithmetic mean over all reps
    int reps = 0;           //!< number of timed runs
};

/**
 * Run fn() `reps` times (floored at one) and summarize the per-run
 * wall time. Every bench that reports repeated timings derives its
 * min/median through this one helper, so the JSON fields are
 * computed identically everywhere (the headline convention is
 * min_ms: the least-disturbed run).
 */
template <typename Fn>
TimeStats
timeStats(int reps, Fn &&fn)
{
    TimeStats out;
    out.reps = reps < 1 ? 1 : reps;
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(out.reps));
    for (int rep = 0; rep < out.reps; ++rep) {
        const WallTimer timer;
        fn();
        samples.push_back(timer.elapsedMs());
    }
    std::sort(samples.begin(), samples.end());
    out.min_ms = samples.front();
    const size_t mid = samples.size() / 2;
    out.median_ms = samples.size() % 2 == 1
                        ? samples[mid]
                        : 0.5 * (samples[mid - 1] + samples[mid]);
    for (const double s : samples)
        out.mean_ms += s;
    out.mean_ms /= static_cast<double>(samples.size());
    return out;
}

/**
 * Minimal ordered JSON object builder. Values are serialized as they
 * are added, so insertion order is preserved; non-finite numbers
 * become null (JSON has no NaN/inf).
 */
class Json
{
  public:
    Json &
    add(const std::string &key, double v)
    {
        return addRaw(key, numberToken(v));
    }

    Json &
    add(const std::string &key, int v)
    {
        return addRaw(key, std::to_string(v));
    }

    Json &
    add(const std::string &key, size_t v)
    {
        return addRaw(key, std::to_string(v));
    }

    Json &
    add(const std::string &key, bool v)
    {
        return addRaw(key, v ? "true" : "false");
    }

    Json &
    add(const std::string &key, const std::string &v)
    {
        return addRaw(key, quote(v));
    }

    Json &
    add(const std::string &key, const char *v)
    {
        return addRaw(key, quote(v));
    }

    Json &
    add(const std::string &key, const Json &object)
    {
        return addRaw(key, object.str());
    }

    Json &
    add(const std::string &key, const std::vector<double> &values)
    {
        std::string body = "[";
        for (size_t i = 0; i < values.size(); ++i) {
            if (i > 0)
                body += ",";
            body += numberToken(values[i]);
        }
        return addRaw(key, body + "]");
    }

    Json &
    add(const std::string &key, const std::vector<Json> &objects)
    {
        std::string body = "[";
        for (size_t i = 0; i < objects.size(); ++i) {
            if (i > 0)
                body += ",";
            body += objects[i].str();
        }
        return addRaw(key, body + "]");
    }

    /** The serialized object, e.g. {"a":1,"b":"x"}. */
    std::string
    str() const
    {
        return "{" + body_ + "}";
    }

  private:
    Json &
    addRaw(const std::string &key, const std::string &token)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += quote(key) + ":" + token;
        return *this;
    }

    static std::string
    numberToken(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    static std::string
    quote(const std::string &s)
    {
        // RFC 8259 string escaping: quote and backslash, the short
        // escapes for the common control characters, \u00XX for the
        // rest of the C0 range. Everything else (including UTF-8
        // multibyte sequences) passes through byte-for-byte.
        std::string out = "\"";
        for (const char c : s) {
            switch (c) {
            case '"': out += "\\\""; continue;
            case '\\': out += "\\\\"; continue;
            case '\n': out += "\\n"; continue;
            case '\t': out += "\\t"; continue;
            case '\r': out += "\\r"; continue;
            case '\b': out += "\\b"; continue;
            case '\f': out += "\\f"; continue;
            default: break;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
                continue;
            }
            out += c;
        }
        return out + "\"";
    }

    std::string body_;
};

/**
 * Write a bench's JSON record to BENCH_<name>.json in the current
 * directory, or under $PSTAT_JSON_DIR when set. Never fatal: on I/O
 * failure the record is skipped with a note.
 */
inline void
writeBenchJson(const std::string &name, const Json &json)
{
    std::string path = "BENCH_" + name + ".json";
    if (const char *dir = std::getenv("PSTAT_JSON_DIR"))
        path = std::string(dir) + "/" + path;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::printf("(could not write %s)\n", path.c_str());
        return;
    }
    const std::string text = json.str();
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fputc('\n', f) != EOF;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::printf("(failed writing %s)\n", path.c_str());
        return;
    }
    std::printf("wrote %s\n", path.c_str());
}

} // namespace pstat::bench

#endif // PSTAT_BENCH_BENCH_UTIL_HH
