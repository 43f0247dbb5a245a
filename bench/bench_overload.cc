/**
 * @file
 * Open-loop overload bench for the serving stack: offered load is
 * swept past saturation and goodput is measured against the overload
 * controls (sojourn-based shedding, deadline propagation, expiry of
 * queued work).
 *
 *   1. measure the cold search cost on this machine;
 *   2. derive the saturation rate from it (workers / per-request
 *      cost at the bench's cold fraction);
 *   3. for each offered load in {0.25, 0.5, 1.0, 1.5, 2.0} x
 *      saturation, generate bursty open-loop arrivals for a fixed
 *      window and classify every response.
 *
 * The controls pass when goodput past saturation plateaus instead of
 * collapsing (goodput at 2x >= 80% of the peak across the sweep) and
 * no GA run is ever spent on a request whose deadline had already
 * expired.  Emits BENCH_overload.json.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/statistics.h"
#include "common/random.h"
#include "models/transformer.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/service.h"

namespace {

using opdvfs::stats::nearestRank;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

opdvfs::models::Workload
transformerVariant(const opdvfs::npu::MemorySystem &memory, int seq)
{
    opdvfs::models::TransformerConfig model;
    model.name = "overload-bench";
    model.layers = 2;
    model.hidden = 1024;
    model.heads = 8;
    model.seq = seq;
    return opdvfs::models::buildTransformerTraining(memory, model, 5);
}

/** One offered request: hot requests reuse a pre-warmed fingerprint,
 *  cold ones carry a never-seen seed (the seed is part of the
 *  fingerprint, so every one forces a full search). */
struct Arrival
{
    bool hot = false;
    std::uint64_t seed = 0;
    int hot_index = 0;
};

/** What came back, bucketed for the goodput accounting. */
struct LevelOutcome
{
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> busy_other{0};
    std::atomic<std::uint64_t> client_deadline{0};
    std::atomic<std::uint64_t> transport_error{0};
    std::mutex latency_mutex;
    std::vector<double> ok_latencies;
};

/** Open-loop arrival queue: the generator never blocks on a slow
 *  server, which is the property that makes overload visible. */
class ArrivalQueue
{
  public:
    void push(Arrival arrival)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            pending_.push_back(arrival);
        }
        ready_.notify_one();
    }

    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    bool pop(Arrival &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock,
                    [this] { return closed_ || !pending_.empty(); });
        if (pending_.empty())
            return false;
        out = pending_.front();
        pending_.pop_front();
        return true;
    }

  private:
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Arrival> pending_;
    bool closed_ = false;
};

constexpr double kColdFraction = 0.5;
constexpr double kDeadlineSeconds = 0.5;
constexpr std::size_t kClientThreads = 24;

/** Offer @p rate requests/s for @p window_seconds in bursts, serve
 *  them one-shot (no retries: an open-loop driver re-offers through
 *  fresh arrivals, not through retry amplification). */
void
runLevel(std::uint16_t port,
         const std::vector<opdvfs::net::WireRequest> &hot_set,
         const opdvfs::net::WireRequest &cold_template, double rate,
         double window_seconds, opdvfs::Rng &rng,
         std::uint64_t &next_cold_seed, LevelOutcome &outcome)
{
    using namespace opdvfs;

    ArrivalQueue queue;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClientThreads; ++c) {
        clients.emplace_back([&, c] {
            net::ClientOptions one_shot;
            one_shot.max_attempts = 1;
            one_shot.request_timeout_seconds = kDeadlineSeconds;
            one_shot.seed = 7000 + c;
            net::StrategyClient client("127.0.0.1", port, one_shot);
            Arrival arrival;
            while (queue.pop(arrival)) {
                net::WireRequest request =
                    arrival.hot ? hot_set[static_cast<std::size_t>(
                                      arrival.hot_index)]
                                : cold_template;
                if (!arrival.hot)
                    request.seed = arrival.seed;
                auto begin = Clock::now();
                try {
                    client.call(request);
                    double latency = secondsSince(begin);
                    outcome.ok.fetch_add(1);
                    std::lock_guard<std::mutex> lock(
                        outcome.latency_mutex);
                    outcome.ok_latencies.push_back(latency);
                } catch (const net::BusyError &busy) {
                    if (busy.reason() == serve::RejectReason::Overloaded)
                        outcome.shed.fetch_add(1);
                    else if (busy.reason() == serve::RejectReason::Expired)
                        outcome.expired.fetch_add(1);
                    else
                        outcome.busy_other.fetch_add(1);
                } catch (const net::DeadlineError &) {
                    outcome.client_deadline.fetch_add(1);
                } catch (const std::exception &) {
                    outcome.transport_error.fetch_add(1);
                }
            }
        });
    }

    // Bursty open-loop generator: arrivals come in clumps of 1-4 with
    // exponential gaps stretched to keep the offered rate.
    auto start = Clock::now();
    double next_at = 0.0;
    while (next_at < window_seconds) {
        double wait = next_at - secondsSince(start);
        if (wait > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wait));
        int burst = static_cast<int>(rng.uniformInt(1, 4));
        for (int b = 0; b < burst; ++b) {
            Arrival arrival;
            arrival.hot = !rng.chance(kColdFraction);
            if (arrival.hot)
                arrival.hot_index = static_cast<int>(rng.index(
                    hot_set.size()));
            else
                arrival.seed = next_cold_seed++;
            queue.push(arrival);
        }
        // Exponential gap sized for the whole burst: E[gap] = burst/rate.
        double u = rng.uniform(1e-9, 1.0);
        next_at += -std::log(u) * static_cast<double>(burst) / rate;
    }
    queue.close();
    for (auto &client : clients)
        client.join();
}

} // namespace

int
main()
{
    using namespace opdvfs;
    bench::banner("bench_overload",
                  "overload control: goodput under an offered-load "
                  "sweep past saturation");
    std::cout << "hardware_concurrency: "
              << std::thread::hardware_concurrency() << "\n\n";

    npu::NpuConfig chip = bench::standardChip();
    npu::MemorySystem memory(chip.memory);

    serve::ServiceOptions options;
    options.pipeline = bench::standardPipeline(0.02);
    options.pipeline.warmup_seconds = 2.0;
    options.pipeline.profile_freqs_mhz = {1000.0, 1800.0};
    options.pipeline.ga.population = 30;
    options.pipeline.ga.generations = 24;
    options.pipeline.ga.refine_sweeps = 2;
    options.workers = 2;
    serve::StrategyService service(options);

    net::StrategyServer server(service, {});
    server.start();
    std::cout << "serving on 127.0.0.1:" << server.port() << "\n";

    // Pre-warm the hot set so its arrivals answer from the cache.
    std::vector<net::WireRequest> hot_set;
    {
        net::StrategyClient warmer("127.0.0.1", server.port());
        for (int seq : {192, 224, 256, 288}) {
            net::WireRequest request;
            request.workload = transformerVariant(memory, seq);
            request.chip = chip;
            request.seed = 7;
            warmer.call(request);
            hot_set.push_back(std::move(request));
        }
    }

    // Cold template: the seed is rewritten per arrival, which changes
    // the fingerprint, so each one costs a full search.
    net::WireRequest cold_template;
    cold_template.workload = transformerVariant(memory, 256);
    cold_template.chip = chip;

    // --- 1: cold cost and the derived saturation rate -------------------
    double cold_seconds = 0.0;
    {
        net::StrategyClient prober("127.0.0.1", server.port());
        constexpr int kProbes = 3;
        for (int i = 0; i < kProbes; ++i) {
            net::WireRequest probe = cold_template;
            probe.seed = 1000001 + static_cast<std::uint64_t>(i);
            auto begin = Clock::now();
            prober.call(probe);
            cold_seconds += secondsSince(begin);
        }
        cold_seconds /= kProbes;
    }
    double saturation_rps = static_cast<double>(options.workers)
                            / (kColdFraction * cold_seconds);
    std::cout << "cold search: " << cold_seconds << " s -> saturation "
              << saturation_rps << " rps at cold fraction "
              << kColdFraction << "\n\n";

    // --- 2: the offered-load sweep --------------------------------------
    const std::vector<double> kLevels = {0.25, 0.5, 1.0, 1.5, 2.0};
    constexpr double kWindowSeconds = 6.0;
    Rng rng(20250809);
    std::uint64_t next_cold_seed = 2000000;

    bench::BenchJson json("overload");
    json.add("cold_seconds", cold_seconds, "s");
    json.add("saturation_rps", saturation_rps, "rps");

    std::vector<double> goodputs;
    for (double level : kLevels) {
        LevelOutcome outcome;
        serve::ServiceStats before = service.stats();
        auto start = Clock::now();
        runLevel(server.port(), hot_set, cold_template,
                 level * saturation_rps, kWindowSeconds, rng,
                 next_cold_seed, outcome);
        double wall = secondsSince(start);
        serve::ServiceStats after = service.stats();

        double goodput = static_cast<double>(outcome.ok.load()) / wall;
        goodputs.push_back(goodput);
        double p99 = nearestRank(outcome.ok_latencies, 0.99);
        std::cout << level << "x: offered " << level * saturation_rps
                  << " rps, goodput " << goodput << " rps, p99 " << p99
                  << " s, shed " << outcome.shed.load() << ", expired "
                  << outcome.expired.load() << ", busy "
                  << outcome.busy_other.load() << ", client-deadline "
                  << outcome.client_deadline.load() << ", transport "
                  << outcome.transport_error.load() << " (service shed "
                  << after.shed_early - before.shed_early
                  << ", expired-in-queue "
                  << after.expired_in_queue - before.expired_in_queue
                  << ")\n";

        std::string prefix =
            "x" + std::to_string(level).substr(0, 4) + "_";
        json.add(prefix + "offered", level * saturation_rps, "rps");
        json.add(prefix + "goodput", goodput, "rps");
        json.add(prefix + "p99", p99, "s");
        json.add(prefix + "shed",
                 static_cast<double>(outcome.shed.load()), "count");
        json.add(prefix + "expired",
                 static_cast<double>(outcome.expired.load()), "count");
        json.add(prefix + "client_deadline",
                 static_cast<double>(outcome.client_deadline.load()),
                 "count");

        // Drain between levels so backlog does not bleed across.
        for (int spin = 0; spin < 600 && service.stats().in_flight > 0;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    server.stop();

    serve::ServiceStats final_stats = service.stats();
    double peak = *std::max_element(goodputs.begin(), goodputs.end());
    double at_2x = goodputs.back();
    double plateau = peak > 0.0 ? at_2x / peak : 0.0;
    std::cout << "\npeak goodput " << peak << " rps; at 2x " << at_2x
              << " rps (" << plateau * 100.0 << "% of peak)\n"
              << "ga_runs_past_deadline "
              << final_stats.ga_runs_past_deadline
              << " (deadline propagation on: must be 0)\n";

    json.add("peak_goodput", peak, "rps");
    json.add("goodput_2x", at_2x, "rps");
    json.add("goodput_2x_over_peak", plateau, "ratio");
    json.add("expired_ga_runs",
             static_cast<double>(final_stats.ga_runs_past_deadline),
             "count");
    json.write();

    bool pass = plateau >= 0.8 && final_stats.ga_runs_past_deadline == 0;
    std::cout << (pass ? "\nPASS" : "\nFAIL")
              << ": goodput plateau past saturation\n";
    return pass ? 0 : 1;
}
