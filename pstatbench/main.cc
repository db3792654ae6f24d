/**
 * @file
 * The pstat benchmark harness.
 *
 *   pstatbench --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-out FILE]
 *   pstatbench --self-test
 *
 * Runs in its working directory, which must be empty and private to
 * the run (run.py makes a unique one and removes it afterwards): every
 * generated shard, result shard and socket lands there. Prints a
 * human-readable report, then one JSON result line last. Exits 1 when
 * any output check failed, 2 on a usage or set-up error (no result).
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "engine/eval_engine.hh"
#include "measure.hh"
#include "workloads.hh"

namespace
{

using namespace pstatbench;
using namespace pstat;

int failures = 0;

void
expect(bool condition, const char *what)
{
    if (!condition) {
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
        ++failures;
    }
}

/** Unit checks of the summaries and of every output check. */
int
selfTest()
{
    // The tail percentile leaves at least ten samples beyond it.
    expect(tailPercentile(1000) == 99, "1000 samples support p99");
    expect(tailPercentile(999) == 95, "999 samples stop at p95");
    expect(tailPercentile(200) == 95, "200 samples support p95");
    expect(tailPercentile(199) == 90, "199 samples stop at p90");
    expect(tailPercentile(100) == 90, "100 samples support p90");
    expect(tailPercentile(40) == 75, "40 samples support p75");
    expect(tailPercentile(20) == 50, "20 samples support p50");
    expect(tailPercentile(19) == 0, "19 samples support no tail");

    std::vector<double> ramp;
    for (int i = 1000; i >= 1; --i)
        ramp.push_back(i);
    const Summary summary = summarize(ramp);
    expect(summary.samples == 1000, "summary counts samples");
    expect(summary.median == 500.5, "median interpolates");
    expect(summary.tail_pct == 99, "summary picks p99");
    expect(std::fabs(summary.tail - 990.01) < 1e-9, "p99 interpolates");
    expect(quantile({1, 2, 3, 4, 5}, 0.25) == 2.0, "quartile");
    expect(jsonNumber(0.1) == "0.1", "numbers keep all their digits");

    // lofreq-stream: a wrong call, an invalid or underflowed column.
    const BigFloat below = BigFloat::twoPow(-300);
    const BigFloat above = BigFloat::twoPow(-100);
    std::vector<engine::EvalResult> calls(2);
    calls[0].value = below;
    calls[1].value = above;
    const std::vector<uint8_t> ref_below = {1, 0};
    expect(callFailures(calls, ref_below) == 0, "correct calls pass");
    auto wrong = calls;
    wrong[1].value = below;
    expect(callFailures(wrong, ref_below) == 1, "a flipped call fails");
    auto invalid = calls;
    invalid[0].invalid = true;
    expect(callFailures(invalid, ref_below) == 1, "invalid fails");
    auto underflow = calls;
    underflow[1].underflow = true;
    expect(callFailures(underflow, ref_below) == 1, "underflow fails");

    // A corrupted result raises the run's error rate above 0.
    Report report;
    report.tally(calls.size(), callFailures(calls, ref_below));
    expect(report.errorRate() == 0.0, "clean run has no errors");
    report.tally(wrong.size(), callFailures(wrong, ref_below));
    expect(report.errorRate() > 0.0, "corruption raises error_rate");
    expect(report.json().find("\"correct\": false") != std::string::npos,
           "a failed run is not correct");

    // adaptive-decide: uncertified, or certified on the wrong side.
    engine::AdaptiveBatch batch;
    batch.results.resize(2);
    batch.results[0].certified = true;
    batch.results[0].interval = {-320.0, -280.0, -40.0};
    batch.results[1].certified = true;
    batch.results[1].interval = {-120.0, -90.0, -40.0};
    expect(decisionFailures(batch, ref_below) == 0, "decisions pass");
    auto uncertified = batch;
    uncertified.results[0].certified = false;
    expect(decisionFailures(uncertified, ref_below) == 1,
           "an uncertified column fails");
    auto misdecided = batch;
    misdecided.results[1].interval = {-260.0, -250.0, -40.0};
    expect(decisionFailures(misdecided, ref_below) == 1,
           "a wrong certified decision fails");

    // serve-openloop: non-Ok, or records not byte-identical.
    serve::ServeResponse response;
    response.records.resize(2);
    response.records[0].limbs = {1, 2, 3, 4};
    response.records[1].exp = -7;
    const auto expected = response.records;
    expect(responseMatches(response, expected), "identical records pass");
    auto flipped = response;
    flipped.records[0].limbs[2] ^= 1;
    expect(!responseMatches(flipped, expected), "a flipped bit fails");
    auto rejected = response;
    rejected.status = serve::RequestStatus::Rejected;
    expect(!responseMatches(rejected, expected), "a rejection fails");

    // phylo-forward: non-finite, or outside the stated bound.
    const std::vector<BigFloat> reference = {BigFloat::twoPow(-5000)};
    std::vector<engine::EvalResult> likelihoods(1);
    likelihoods[0].value = reference[0];
    expect(likelihoodFailures(likelihoods, reference) == 0,
           "an exact likelihood passes");
    auto drifted = likelihoods;
    drifted[0].value =
        reference[0] * BigFloat::fromDouble(1.0 + 1e-6);
    expect(likelihoodFailures(drifted, reference) == 1,
           "a likelihood off by 1e-6 fails");
    auto nan = likelihoods;
    nan[0].value = BigFloat::nan();
    expect(likelihoodFailures(nan, reference) == 1, "NaN fails");

    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: pstatbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       pstatbench --self-test\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--self-test")
        return selfTest();

    Options options;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (argc % 2 != 1 || !have_workload || !(options.seconds > 0.0))
        return usage();

    // Lanes: one less than the processor count, at most four. A run is
    // as slow as its slowest lane at every executor barrier, so one
    // processor stays free for the stream producer, the harness and
    // whatever else the machine runs.
    const unsigned processors = std::thread::hardware_concurrency();
    options.lanes = std::clamp(processors > 1 ? processors - 1 : 1u, 1u, 4u);
    // A peer that hangs up must surface as a FrameError, not a signal.
    std::signal(SIGPIPE, SIG_IGN);

    Report report;
    try {
        runWorkload(options, report);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pstatbench: %s\n", error.what());
        return 2;
    }
    note("%s: %zu operations checked, %zu failed, error_rate %.6g",
         options.workload.c_str(), report.attempted(), report.failed(),
         report.errorRate());
    std::printf("%s\n", report.json().c_str());
    return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
