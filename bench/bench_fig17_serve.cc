/**
 * @file
 * Figure 17 (extension): the serving layer — what evaluation costs
 * once it travels through the `pstat serve` daemon instead of an
 * in-process EvalEngine call.
 *
 * Two phases against one in-process Server on a Unix socket:
 *
 * (a) Closed-loop round-trip latency: one client, sequential
 *     send/receive of a fixed-size request. The delta against the
 *     direct EvalEngine::run on the same columns is the protocol tax
 *     (frame encode + socket hop + schedule + frame decode).
 * (b) Open-loop sustained load: a sender thread releases requests on
 *     a fixed arrival schedule (intended arrival times derived from
 *     an offered rate, NOT from when the previous response came
 *     back) while a receiver thread collects responses; per-request
 *     latency is measured from the *intended* arrival, so queueing
 *     delay is charged to the server, never silently absorbed by a
 *     slow client (no coordinated omission). The admission queue is
 *     sized to hold every request of the run, so rejected == 0
 *     structurally and the JSON field is exact.
 *
 * The JSON record keeps schedule-dependent values (batch counts,
 * coalescing ratios) out: they vary run to run by design, so they
 * are printed for the eye but never pinned by the baseline guard.
 *
 * Knobs: PSTAT_SCALE scales the workload, PSTAT_THREADS the engine
 * lanes, PSTAT_COMPENSATED the summation policy of the served plan,
 * PSTAT_FIG17_RATE_FRACTION the offered open-loop load as a
 * fraction of the measured closed-loop capacity (default 0.7).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "engine/eval_engine.hh"
#include "engine/plan.hh"
#include "pbd/dataset.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/server.hh"
#include "stats/table.hh"

namespace
{

using namespace pstat;
using Clock = std::chrono::steady_clock;

engine::EvalPlan
servePlan()
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = "binary64";
    plan.sum = bench::sumPolicy();
    return plan;
}

double
quantileMs(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double pos =
        q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

int
main()
{
    const bench::WallTimer total_timer;

    const int columns_per_request = bench::scaled(64, 8);
    const int requests = bench::scaled(200, 20);
    const int warmup = 4;
    const double rate_fraction =
        bench::envDouble("PSTAT_FIG17_RATE_FRACTION", 0.7);

    pbd::DatasetConfig dataset_config;
    dataset_config.num_columns = columns_per_request;
    dataset_config.median_coverage = 120.0;
    dataset_config.coverage_sigma = 0.5;
    dataset_config.seed = 17;
    const auto columns =
        pbd::makeDataset(dataset_config, "fig17").columns;

    bench::note("=== fig17: pstat serve daemon vs in-process run ===");
    std::printf("%d requests x %d columns, offered load %.0f%% of "
                "closed-loop capacity\n\n",
                requests, columns_per_request, 100.0 * rate_fraction);

    const std::string socket_path =
        (std::filesystem::temp_directory_path() /
         ("pstat_fig17_" + std::to_string(::getpid()) + ".sock"))
            .string();
    serve::ServerConfig server_config;
    server_config.unix_path = socket_path;
    // Admission never rejects in this bench: the queue holds every
    // request of the open-loop run, so `rejected` is exactly zero
    // and the baseline pins it.
    server_config.queue_capacity = static_cast<size_t>(requests);
    serve::Server server(server_config);

    serve::ServeRequest request;
    request.plan = servePlan();
    request.columns = columns;

    // ---- (a) closed loop: protocol tax over the direct call
    engine::EvalEngine engine(0);
    engine::PlanInputs direct_inputs;
    direct_inputs.columns = columns;
    const engine::EvalPlan direct_plan = servePlan();
    engine.run(direct_plan, direct_inputs); // warm the engine
    const bench::TimeStats direct = bench::timeStats(7, [&] {
        engine.run(direct_plan, direct_inputs);
    });

    auto client = serve::Client::connectUnix(socket_path);
    for (int i = 0; i < warmup; ++i) {
        request.id = static_cast<uint64_t>(i + 1);
        (void)client.roundTrip(request);
    }
    const bench::TimeStats looped = bench::timeStats(7, [&] {
        request.id += 1;
        const auto response = client.roundTrip(request);
        if (response.status != serve::RequestStatus::Ok) {
            std::fprintf(stderr, "fig17: round trip failed: %s\n",
                         response.message.c_str());
            std::exit(1);
        }
    });
    const double tax_ms = looped.min_ms - direct.min_ms;

    stats::TextTable latency({"path", "min ms", "median ms"});
    latency.addRow({"in-process run",
                    stats::formatDouble(direct.min_ms, 2),
                    stats::formatDouble(direct.median_ms, 2)});
    latency.addRow({"daemon round trip",
                    stats::formatDouble(looped.min_ms, 2),
                    stats::formatDouble(looped.median_ms, 2)});
    latency.print();
    std::printf("protocol tax: %.2f ms per %d-column request\n\n",
                tax_ms, columns_per_request);

    // ---- (b) open loop at a fraction of closed-loop capacity
    const double capacity_per_s = 1000.0 / looped.min_ms;
    const double offered_per_s = capacity_per_s * rate_fraction;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / offered_per_s));

    std::vector<double> latency_ms(
        static_cast<size_t>(requests), 0.0);
    bool all_ok = true;
    const Clock::time_point start = Clock::now() + interval;

    std::thread receiver([&] {
        for (int i = 0; i < requests; ++i) {
            const auto response = client.receive();
            if (response.status != serve::RequestStatus::Ok ||
                response.records.size() != columns.size()) {
                all_ok = false;
                continue;
            }
            // ids are 1-based send indices; latency runs from the
            // request's *intended* arrival to its response.
            const auto intended =
                start + interval * (response.id - 1);
            latency_ms[response.id - 1] =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - intended)
                    .count();
        }
    });

    for (int i = 0; i < requests; ++i) {
        std::this_thread::sleep_until(start + interval * i);
        request.id = static_cast<uint64_t>(i + 1);
        client.send(request);
    }
    receiver.join();
    server.stop();
    const serve::ServerStats stats = server.stats();

    const double p50 = quantileMs(latency_ms, 0.50);
    const double p99 = quantileMs(latency_ms, 0.99);
    const double span_s =
        std::chrono::duration<double>(interval).count() *
        static_cast<double>(requests);
    const size_t columns_total =
        static_cast<size_t>(requests) * columns.size();
    const double columns_per_s =
        static_cast<double>(columns_total) / span_s;

    std::printf("open loop: offered %.1f req/s for %.1f s\n",
                offered_per_s, span_s);
    std::printf("latency from intended arrival: p50 %.2f ms, "
                "p99 %.2f ms\n",
                p50, p99);
    std::printf("server: %llu served, %llu rejected, %llu expired, "
                "%llu batches (batching is schedule-dependent; "
                "not baselined)\n",
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.batches));

    std::filesystem::remove(socket_path);

    const double wall_ms = total_timer.elapsedMs();
    const bool ok = all_ok && stats.rejected == 0 &&
                    stats.expired == 0 &&
                    stats.served ==
                        static_cast<uint64_t>(requests) + warmup + 7;
    std::printf("\nheadline: %.2f ms protocol tax, open-loop p99 "
                "%.2f ms at %.0f%% load; every response Ok: %s\n",
                tax_ms, p99, 100.0 * rate_fraction,
                ok ? "yes" : "NO");
    std::printf("wall time: %.0f ms\n", wall_ms);

    bench::writeBenchJson(
        "fig17_serve",
        bench::Json()
            .add("bench", "fig17_serve")
            .add("wall_ms", wall_ms)
            .add("eval_lanes", static_cast<int>(engine.threadCount()))
            .add("requests", static_cast<size_t>(requests))
            .add("columns_per_request",
                 static_cast<size_t>(columns_per_request))
            .add("columns_total", columns_total)
            .add("rejected", static_cast<size_t>(stats.rejected))
            .add("expired", static_cast<size_t>(stats.expired))
            .add("all_ok", all_ok)
            .add("direct_min_ms", direct.min_ms)
            .add("roundtrip_min_ms", looped.min_ms)
            .add("protocol_tax_ms", tax_ms)
            .add("open_loop_p50_ms", p50)
            .add("open_loop_p99_ms", p99)
            .add("columns_per_s", columns_per_s));
    return ok ? 0 : 1;
}
