/**
 * @file
 * End-to-end benchmark of the strategy server.
 *
 * Starts the real net::StrategyServer in front of a
 * serve::StrategyService on loopback, drives it from one
 * single-threaded generator, checks every answer, and prints one JSON
 * result line.  See README.md in this directory for the workloads,
 * the metrics and the steadiness rules.
 *
 *   perfbench --workload cold-zoo|hit-storm|resubmit-mix --seed N
 *             --seconds S --trace 0|1 [--out DIR] [--commit ID]
 *             [--code DIGEST]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dvfs/pipeline.h"
#include "models/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "npu/freq_table.h"
#include "npu/memory_system.h"
#include "serve/service.h"
#include "trace/workload_runner.h"

#include "generator.h"
#include "replay.h"
#include "stats.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace dvfs = opdvfs::dvfs;
namespace models = opdvfs::models;
namespace net = opdvfs::net;
namespace npu = opdvfs::npu;
namespace serve = opdvfs::serve;
using Clock = std::chrono::steady_clock;

// --- fixed setup ------------------------------------------------------------

/** Zoo models, 4 (ResNet50) to ~54 (BERT) GA stages.  Four models, so
 *  over whole rounds the p50 of the zoo class falls in the middle of
 *  the two middle models' latencies, not on the edge of a mode. */
const std::vector<std::string> kZoo = {"ResNet50", "Vit_base", "ResNet152",
                                       "BERT"};
const std::string kGpt3 = "GPT3";
constexpr double kLossTarget = 0.02;

constexpr std::size_t kReactors = 1;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 4;
/** Set-ups per run; setup_s is their median.  Five, so that two
 *  set-ups slowed from outside the process do not move it. */
constexpr int kSetupRepeats = 5;

/** Closed-loop rounds: each holds every zoo model once, each followed
 *  by a GPT-3 request.  Whole rounds run until --seconds have passed,
 *  at least kMinRounds (20 samples per size class, so a p50 has 10
 *  beyond it) and at most kMaxRounds. */
constexpr int kMinRounds = 5;
constexpr int kMaxRounds = 6;
/** Zoo-size calls the traced replay makes at least per layer: a p50
 *  of 20 samples has kMinBeyond beyond it. */
constexpr std::size_t kLayerSamples = 20;

/** hit-storm: latencies come from kReferenceWindows windows of
 *  kWindowRequests zoo hits at the reference rate, each followed by
 *  kGpt3HitsPerWindow closed-loop GPT-3 hits. */
constexpr double kReferenceRate = 200.0;
constexpr int kReferenceWindows = 8;
constexpr std::size_t kWindowRequests = 200;
constexpr std::size_t kGpt3HitsPerWindow = 5;
/** hit-storm capacity ladder: rung i offers kLadderBase * kLadderRatio^i
 *  requests/s; a rung passes when its zoo-hit p99 is under the limit
 *  and its backlog does not grow. */
constexpr double kLadderBase = 100.0;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderRungs = 100;
constexpr int kLadderStart = 28; // ~390 rps
constexpr int kLadderJump = 14;  // ~2x
constexpr std::size_t kStepRequests = 1000;
constexpr double kHitP99LimitMs = 50.0;
constexpr double kBacklogShare = 0.02;
/** Exact-hit key draw: frames up to this size are "small" and drawn
 *  kSmallFrameWeight times as often.  With an even draw and the eight
 *  windows, zoo_p50_ms spread 0.33 over five seeds (STEADINESS.md). */
constexpr std::size_t kSmallFrameBytes = 128 * 1024;
constexpr double kSmallFrameWeight = 3.0;
/** resubmit-mix: zoo and GPT-3 exact hits offered while the closed
 *  loop searches; the GPT-3 hits give its gpt3_p50_ms. */
constexpr double kMixHitRate = 100.0;
constexpr double kMixGpt3Rate = 4.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".perfbench";
    std::string commit = "unknown";
    /** Digest of the code under test; keys the files that later runs
     *  compare against, so only runs of the same code are compared. */
    std::string code = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        std::string value = argv[++i];
        if (key == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--out") {
            args.out = value;
        } else if (key == "--commit") {
            args.commit = value;
        } else if (key == "--code") {
            args.code = value;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (!have_workload
        || (args.workload != "cold-zoo" && args.workload != "hit-storm"
            && args.workload != "resubmit-mix"))
        throw std::invalid_argument("--workload must be cold-zoo, "
                                    "hit-storm or resubmit-mix");
    if (args.seconds <= 0.0)
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** A seed derived from the workload seed and two labels. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return splitmix(seed ^ splitmix(a * 1000003ULL + b)) >> 1;
}

/** The paper's Sect. 7.4 settings (bench/bench_common.h
 *  standardPipeline()) with the calibration left to the service. */
dvfs::PipelineOptions
paperPipeline()
{
    dvfs::PipelineOptions options;
    options.chip = npu::NpuConfig{};
    options.perf_loss_target = kLossTarget;
    options.warmup_seconds = 15.0;
    options.fit_kind = opdvfs::perf::FitFunction::PwlCycles;
    options.profile_freqs_mhz = {1000.0, 1400.0, 1800.0};
    options.preprocess.fai = 5 * opdvfs::kTicksPerMs;
    options.ga.population = 200;
    options.ga.generations = 600;
    options.ga.mutation_rate = 0.15;
    return options;
}

// --- requests -------------------------------------------------------------------

struct Request
{
    std::uint64_t id = 0;
    std::string model;
    bool gpt3 = false;
    std::uint64_t workload_seed = 0;
    std::uint64_t seed = 0;
    bool allow_warm = false;
    std::string frame;
};

models::Workload
buildWorkload(const Request &request, const npu::MemorySystem &memory)
{
    return models::buildWorkload(request.model, memory,
                                 request.workload_seed);
}

Request
makeRequest(std::uint64_t id, const std::string &model,
            std::uint64_t workload_seed, std::uint64_t seed, bool allow_warm,
            const npu::NpuConfig &chip, const npu::MemorySystem &memory)
{
    Request request;
    request.id = id;
    request.model = model;
    request.gpt3 = model == kGpt3;
    request.workload_seed = workload_seed;
    request.seed = seed;
    request.allow_warm = allow_warm;
    net::WireRequest wire;
    wire.workload = buildWorkload(request, memory);
    wire.chip = chip;
    wire.perf_loss_target = kLossTarget;
    wire.seed = seed;
    wire.allow_warm_start = allow_warm;
    request.frame = net::frameRequest(wire);
    return request;
}

/** Everything a workload sends, generated from the workload seed. */
struct Plan
{
    /** Untimed, closed loop: the entries the hits read. */
    std::vector<Request> prefill;
    /** The timed closed-loop stream, round by round. */
    std::vector<std::vector<Request>> rounds;
};

/** Seeds the fixed pool of model variants every run draws from.  A
 *  run starts with an empty cache, so a variant is a first contact in
 *  every run; the workload seed orders the stream. */
constexpr std::uint64_t kPoolSeed = 1;

/** ResNet50 (workload seed, request seed) pairs whose served strategy
 *  re-executes closest to the 2% target of any known draw: 1.977% and
 *  1.992% performance loss (iteration time +2.0166% and +2.0325%).
 *  They are ResNet50 variants 0 (the prefill of hit-storm and
 *  resubmit-mix) and 1 (cold-zoo's first round), so every workload runs
 *  the loss check at its edge. */
constexpr std::pair<std::uint64_t, std::uint64_t> kNearTarget[] = {
    {2055880340505626103ULL, 6592919301928413924ULL},
    {4333583072186040156ULL, 3003304903685529563ULL},
};

Request
poolRequest(std::uint64_t id, std::size_t model, std::uint64_t variant,
            bool allow_warm, const npu::NpuConfig &chip,
            const npu::MemorySystem &memory)
{
    const bool gpt3 = model == kZoo.size();
    if (model == 0 && variant < std::size(kNearTarget))
        return makeRequest(id, kZoo[0], kNearTarget[variant].first,
                           kNearTarget[variant].second, allow_warm, chip,
                           memory);
    return makeRequest(id, gpt3 ? kGpt3 : kZoo[model],
                       derive(kPoolSeed, 10 + model, variant),
                       derive(kPoolSeed, 20 + model, variant), allow_warm,
                       chip, memory);
}

Plan
buildPlan(const Args &args, const npu::NpuConfig &chip,
          const npu::MemorySystem &memory)
{
    Plan plan;
    std::uint64_t id = 1;
    std::mt19937_64 order_rng(derive(args.seed, 1, 0));
    const bool cold = args.workload == "cold-zoo";
    if (!cold) {
        // Variant 0 of every model, GPT-3 last: the known fleet.
        for (std::size_t m = 0; m <= kZoo.size(); ++m)
            plan.prefill.push_back(poolRequest(id++, m, 0, false, chip, memory));
    }
    if (args.workload == "hit-storm")
        return plan;
    // cold-zoo: a new (model, workload seed, request seed) every time.
    // resubmit-mix: the prefilled zoo models under new workload seeds.
    // Round r sends zoo variant r + 1 of every model, each shuffled by
    // the workload seed; on cold-zoo each is followed by a new GPT-3
    // variant.
    for (int r = 0; r < kMaxRounds; ++r) {
        std::vector<std::size_t> zoo(kZoo.size()), gpt3(kZoo.size());
        std::iota(zoo.begin(), zoo.end(), 0);
        std::iota(gpt3.begin(), gpt3.end(),
                  static_cast<std::size_t>(r) * kZoo.size() + 1);
        std::shuffle(zoo.begin(), zoo.end(), order_rng);
        std::shuffle(gpt3.begin(), gpt3.end(), order_rng);
        std::vector<Request> round;
        for (std::size_t i = 0; i < kZoo.size(); ++i) {
            round.push_back(poolRequest(id++, zoo[i],
                                        static_cast<std::uint64_t>(r) + 1,
                                        !cold, chip, memory));
            if (cold)
                round.push_back(poolRequest(id++, kZoo.size(), gpt3[i],
                                            false, chip, memory));
        }
        plan.rounds.push_back(std::move(round));
    }
    return plan;
}

// --- answers ---------------------------------------------------------------------

struct Answer
{
    const Request *request = nullptr;
    double latency = 0.0;
    std::string raw;
    net::WireResponse response;
    bool ok = false;
    std::string error;
};

/** Decodes and checks one closed-loop answer: status Ok and every
 *  per-stage frequency in the chip's table. */
void
checkAnswer(Answer &answer, const npu::FreqTable &table)
{
    std::size_t consumed = 0;
    try {
        auto frame = net::peelFrame(answer.raw, &consumed);
        if (!frame || frame->type != net::MsgType::Response)
            throw std::runtime_error("not a response frame");
        answer.response = net::decodeResponse(frame->payload);
    } catch (const std::exception &error) {
        answer.error = error.what();
        return;
    }
    const net::WireResponse &r = answer.response;
    if (r.status != net::Status::Ok) {
        answer.error = std::string("status ") + net::statusToken(r.status)
                       + ": " + r.message;
        return;
    }
    if (r.strategy.mhz_per_stage.empty()
        || r.strategy.mhz_per_stage.size() != r.strategy.stages.size()) {
        answer.error = "strategy has no per-stage frequencies";
        return;
    }
    for (double mhz : r.strategy.mhz_per_stage) {
        if (!table.supports(mhz)) {
            answer.error = "frequency not in the chip's table";
            return;
        }
    }
    answer.ok = true;
}

/** A closed-loop stream and what the open loop did meanwhile. */
struct ClosedRun
{
    std::vector<Answer> answers;
    RunReport report;
};

/**
 * Sends @p requests one after another on connection 0 while @p open runs
 * on the others.  @p stop, when set, is asked before each request with
 * the number sent and the seconds elapsed; true ends the stream.  Answers
 * are decoded and checked; one that never came is a failed answer.
 */
ClosedRun
closedLoop(Generator &generator, const std::vector<const Request *> &requests,
           const npu::FreqTable &table, const std::vector<OpenItem> &open = {},
           const std::function<bool(std::size_t, double)> &stop = {},
           SpanRecorder *spans = nullptr)
{
    ClosedRun run;
    std::size_t next = 0;
    ClosedStream stream;
    stream.next = [&](double elapsed) -> const std::string * {
        if (next == requests.size() || (stop && stop(next, elapsed)))
            return nullptr;
        run.answers.push_back({requests[next], 0.0, {}, {}, false, {}});
        return &requests[next++]->frame;
    };
    stream.done = [&](std::string_view raw, double latency) {
        Answer &answer = run.answers.back();
        answer.raw.assign(raw);
        answer.latency = latency;
        if (spans) {
            double now = spans->now();
            spans->add(answer.request->id, "e2e.request", -1, now - latency,
                       now);
        }
    };
    run.report = generator.run(&stream, open);
    for (Answer &answer : run.answers)
        checkAnswer(answer, table);
    return run;
}

// --- the server --------------------------------------------------------------------

/** The server is declared after the service, so it stops first. */
struct Stack
{
    std::unique_ptr<serve::StrategyService> service;
    std::unique_ptr<net::StrategyServer> server;
    Plan plan;
};

/** Builds the workload's inputs, the service (offline calibration
 *  included) and the listener, and waits for the first answer. */
std::unique_ptr<Stack>
setUp(const Args &args, const npu::NpuConfig &chip,
      const npu::MemorySystem &memory)
{
    auto stack = std::make_unique<Stack>();
    stack->plan = buildPlan(args, chip, memory);
    serve::ServiceOptions options;
    options.pipeline = paperPipeline();
    options.workers = kWorkers;
    stack->service = std::make_unique<serve::StrategyService>(options);
    net::ServerOptions server_options;
    server_options.reactor_threads = kReactors;
    stack->server =
        std::make_unique<net::StrategyServer>(*stack->service, server_options);
    stack->server->start();
    if (net::adminQuery("127.0.0.1", stack->server->port(), "HEALTH")
            .rfind("ok", 0)
        != 0)
        throw std::runtime_error("server did not report healthy");
    return stack;
}

// --- result bookkeeping ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void fail(const std::string &what)
    {
        if (problems.size() < 20)
            problems.push_back(what);
    }
    void count(const Answer &answer)
    {
        ++attempted;
        if (!answer.ok) {
            ++failed;
            fail(answer.request->model + " #"
                 + std::to_string(answer.request->id) + ": " + answer.error);
        }
    }
};

std::string
hexBits(double value)
{
    std::ostringstream os;
    os << std::hex << std::bit_cast<std::uint64_t>(value);
    return os.str();
}

std::string
jsonNumber(double value)
{
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

/** Latencies in ms of the answers selected by @p keep. */
std::vector<double>
latenciesMs(const std::vector<Answer> &answers,
            const std::function<bool(const Answer &)> &keep)
{
    std::vector<double> out;
    for (const Answer &answer : answers)
        if (answer.ok && keep(answer))
            out.push_back(answer.latency * 1e3);
    return out;
}

/** The p50 of @p values; a missing percentile is a failed run. */
double
requireP50(const std::vector<double> &values, const std::string &what,
           Checks &checks, std::ostream &log)
{
    auto q = nearestRank(values, 0.5);
    if (!q) {
        checks.fail(what + ": only " + std::to_string(values.size())
                    + " samples, too few for a p50");
        return 0.0;
    }
    log << what << ": p50 " << q->value << " ms (n=" << q->samples
        << ", " << q->beyond << " beyond)\n";
    return q->value;
}

// --- re-execution on the simulator (Table 3 metric) -------------------------------

struct Reexecution
{
    double saving_pct = 0.0;
    std::size_t strategies = 0;
    /** Largest realised performance loss over the strategies. */
    double max_loss_pct = 0.0;
    /** The same strategy's iteration-time increase. */
    double max_loss_time_pct = 0.0;
};

/** Re-executes every distinct served strategy on the simulator the
 *  way the pipeline measures one, checks its loss against the
 *  request's target and returns the mean AICore power saving.
 *
 *  The target bounds performance, as the GA's Eq. 17 lower bound does
 *  (dvfs/genetic.cc: per_lb = per_baseline * (1 - target), performance
 *  being iterations per second): the realised loss is
 *  1 - baseline seconds / DVFS seconds.  The iteration-time increase
 *  (PipelineResult::perfLoss()) is logged beside it. */
Reexecution
reexecute(const std::vector<const Answer *> &answers,
          const dvfs::PipelineOptions &pipeline,
          const npu::MemorySystem &memory, Checks &checks)
{
    std::map<std::uint64_t, const Answer *> distinct;
    for (const Answer *answer : answers)
        if (answer->ok)
            distinct.emplace(answer->response.fingerprint_digest, answer);
    std::vector<const Answer *> todo;
    for (auto &[digest, answer] : distinct)
        todo.push_back(answer);
    std::vector<double> saving(todo.size(), 0.0);
    std::vector<double> loss(todo.size(), 0.0);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        opdvfs::trace::WorkloadRunner runner(pipeline.chip);
        for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
            const Request &request = *todo[i]->request;
            const dvfs::Strategy &strategy = todo[i]->response.strategy;
            models::Workload workload = buildWorkload(request, memory);
            opdvfs::trace::RunOptions base_options;
            base_options.initial_mhz = *std::max_element(
                pipeline.profile_freqs_mhz.begin(),
                pipeline.profile_freqs_mhz.end());
            base_options.warmup_seconds = pipeline.warmup_seconds;
            base_options.sample_period = pipeline.profile_sample_period;
            base_options.seed = request.seed * 31
                                + static_cast<std::uint64_t>(
                                    base_options.initial_mhz);
            auto baseline = runner.run(workload, base_options);
            opdvfs::trace::RunOptions dvfs_options;
            dvfs_options.initial_mhz = strategy.plan.initial_mhz;
            dvfs_options.warmup_seconds = pipeline.warmup_seconds;
            dvfs_options.seed = request.seed * 131 + 7;
            auto run = runner.run(workload, dvfs_options,
                                  strategy.plan.triggers);
            saving[i] = 1.0 - run.aicore_avg_w / baseline.aicore_avg_w;
            loss[i] = 1.0 - baseline.iteration_seconds
                                / run.iteration_seconds;
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back(worker);
    for (auto &thread : threads)
        thread.join();
    Reexecution out;
    for (std::size_t i = 0; i < todo.size(); ++i) {
        if (loss[i] > kLossTarget)
            checks.fail(todo[i]->request->model + " #"
                        + std::to_string(todo[i]->request->id)
                        + ": re-executed performance loss "
                        + jsonNumber(loss[i] * 100) + "% over the "
                        + jsonNumber(kLossTarget * 100) + "% target");
        if (loss[i] * 100 > out.max_loss_pct) {
            out.max_loss_pct = loss[i] * 100;
            out.max_loss_time_pct = (1.0 / (1.0 - loss[i]) - 1.0) * 100;
        }
    }
    out.strategies = todo.size();
    out.saving_pct = mean(saving) * 100.0;
    return out;
}

// --- open-loop schedules ------------------------------------------------------------

struct HitKey
{
    const std::string *frame = nullptr;
    std::string expect;
};

/** @p count zoo hits spaced 1/rate apart, keys drawn from @p rng.  Zoo
 *  frames come in two sizes (ResNet50/Vit_base ~70 KB, ResNet152/BERT
 *  ~240 KB), so an even draw puts the hit p50 on the edge between the
 *  two latency modes; small frames are drawn kSmallFrameWeight times as
 *  often, which puts it inside the small mode. */
std::vector<OpenItem>
hitSchedule(const std::vector<HitKey> &keys, double rate, std::size_t count,
            std::mt19937_64 &rng)
{
    std::vector<double> weights;
    for (const HitKey &key : keys)
        weights.push_back(key.frame->size() <= kSmallFrameBytes
                              ? kSmallFrameWeight
                              : 1.0);
    std::discrete_distribution<std::size_t> pick(weights.begin(),
                                                 weights.end());
    std::vector<OpenItem> items(count);
    for (std::size_t i = 0; i < count; ++i) {
        const HitKey &key = keys[pick(rng)];
        items[i] = {static_cast<double>(i) / rate, key.frame, &key.expect};
    }
    return items;
}

struct StepResult
{
    double rate = 0.0;
    std::optional<Quantile> p99;
    std::optional<Quantile> p50;
    std::size_t backlog = 0;
    /** Latest the generator wrote any request, ms after its due time. */
    double lateness_max = 0.0;
    std::size_t failed = 0;
    /** Judged against the capacity limits (ladder and reference). */
    bool judged = false;
    bool pass = false;
};

StepResult
openStep(Generator &generator, const std::vector<OpenItem> &items,
         double rate, Checks &checks, std::vector<double> *latencies_ms)
{
    RunReport report = generator.run(nullptr, items);
    StepResult step;
    step.rate = rate;
    std::vector<double> lat, late;
    for (const OpenOutcome &outcome : report.open) {
        ++checks.attempted;
        late.push_back(outcome.lateness * 1e3);
        if (outcome.latency < 0.0 || !outcome.ok) {
            ++step.failed;
            continue;
        }
        lat.push_back(outcome.latency * 1e3);
    }
    checks.failed += step.failed;
    if (step.failed)
        checks.fail(std::to_string(step.failed) + " exact hits at "
                    + jsonNumber(rate) + " rps failed or differed");
    if (report.transport_error)
        checks.fail("open loop: transport error");
    step.p99 = nearestRank(lat, 0.99);
    step.p50 = nearestRank(lat, 0.5);
    step.lateness_max = late.empty() ? 0.0
                                     : *std::max_element(late.begin(),
                                                         late.end());
    step.backlog = report.backlog_at_last_due;
    step.judged = step.p99.has_value();
    step.pass = step.failed == 0 && step.p99
                && step.p99->value <= kHitP99LimitMs
                && static_cast<double>(step.backlog)
                       <= kBacklogShare * static_cast<double>(items.size());
    if (latencies_ms)
        *latencies_ms = std::move(lat);
    return step;
}

void
logStep(std::ostream &log, const char *what, const StepResult &step)
{
    log << what << " " << jsonNumber(step.rate) << " rps: p50 "
        << (step.p50 ? jsonNumber(step.p50->value) : "-") << " ms, p99 "
        << (step.p99 ? jsonNumber(step.p99->value) : "-") << " ms (n="
        << (step.p50 ? step.p50->samples : 0) << "), backlog "
        << step.backlog << ", generator lateness max "
        << jsonNumber(step.lateness_max) << " ms, failed " << step.failed
        << (!step.judged ? "" : step.pass ? ", pass" : ", over the limits")
        << "\n";
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Connections the generator opens: cold-zoo has only its closed
 *  loop. */
std::size_t
connectionsFor(const Args &args)
{
    return args.workload == "cold-zoo" ? 1 : kConnections;
}

std::string
metaJson(const Args &args)
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"commit\": \"" << args.commit
       << "\", \"code\": \"" << args.code
       << "\", \"reactor_threads\": " << kReactors
       << ", \"worker_threads\": " << kWorkers
       << ", \"generator_threads\": 1, \"generator_connections\": "
       << connectionsFor(args) << ", \"workload\": \"" << args.workload
       << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
       << ", \"trace\": " << (args.trace ? "true" : "false") << "}";
    return os.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}";
    return os.str();
}

/** Compares the deterministic record with the one an earlier run of
 *  the same code, workload and seed left at @p path, then stores it. */
void
checkDeterminism(const std::filesystem::path &path, const std::string &record,
                 Checks &checks, std::ostream &log)
{
    std::ifstream previous(path);
    if (previous) {
        std::stringstream text;
        text << previous.rdbuf();
        if (text.str() != record)
            checks.fail("deterministic record differs from the previous "
                        "run with this seed: " + path.string());
        else
            log << "deterministic record matches " << path.string() << "\n";
    }
    std::ofstream(path) << record;
}

// --- the run --------------------------------------------------------------------------

int
runBenchmark(const Args &args)
{
    std::ostream &log = std::cerr;
    const npu::NpuConfig chip{};
    const npu::MemorySystem memory(chip.memory);
    const npu::FreqTable table(chip.freq);
    std::filesystem::create_directories(args.out);
    const std::string tag =
        args.workload + "-seed" + std::to_string(args.seed);
    // Records that runs compare against belong to one version of the code.
    const std::string code_tag = tag + "-" + args.code;

    // --- set-up, several times; the median is setup_s ------------------
    std::vector<double> setups;
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < kSetupRepeats; ++i) {
        stack.reset();
        auto begin = Clock::now();
        stack = setUp(args, chip, memory);
        setups.push_back(
            std::chrono::duration<double>(Clock::now() - begin).count());
    }
    std::sort(setups.begin(), setups.end());
    const double setup_s = setups[setups.size() / 2];
    serve::StrategyService &service = *stack->service;
    net::StrategyServer &server = *stack->server;
    const Plan &plan = stack->plan;
    const dvfs::PipelineOptions pipeline = service.options().pipeline;
    log << "set-up " << setup_s << " s (median of";
    for (double s : setups)
        log << " " << s;
    log << ")\n";

    Checks checks;
    Generator generator(server.port(), connectionsFor(args));

    // --- untimed prefill: the cache-mutating first contacts ------------
    std::vector<const Request *> prefill_requests;
    for (const Request &request : plan.prefill)
        prefill_requests.push_back(&request);
    std::vector<Answer> prefill =
        closedLoop(generator, prefill_requests, table).answers;
    for (const Answer &answer : prefill)
        checks.count(answer);
    // One exact hit per key gives the bytes every later hit must match.
    std::vector<HitKey> zoo_keys;
    std::optional<HitKey> gpt3_key;
    if (!prefill.empty()) {
        std::vector<Answer> refs =
            closedLoop(generator, prefill_requests, table).answers;
        for (std::size_t i = 0; i < refs.size(); ++i) {
            Answer &ref = refs[i];
            checks.count(ref);
            if (ref.ok
                && (ref.response.provenance != serve::Provenance::ExactHit
                    || ref.response.strategy.mhz_per_stage
                           != prefill[i].response.strategy.mhz_per_stage))
                checks.fail("reference hit does not repeat the prefill");
            HitKey key{&ref.request->frame, ref.raw};
            if (ref.request->gpt3)
                gpt3_key = key;
            else
                zoo_keys.push_back(key);
        }
    }

    // --- the timed window ------------------------------------------------
    // Spans are kept in memory and written when the run ends.
    SpanRecorder spans;
    net::ServerStats server_before = server.stats();
    serve::ServiceStats service_before = service.stats();
    std::vector<Answer> stream; // the timed closed loop
    std::vector<double> zoo_ms, gpt3_ms;
    std::vector<double> zoo_window_p50s; // hit-storm only
    double served_rps = 0.0;
    std::vector<double> net_overhead_s;
    std::uint64_t request_bytes = 0, request_count = 0;
    std::ostringstream steps_log;

    if (args.workload == "hit-storm") {
        if (zoo_keys.empty() || !gpt3_key)
            throw std::runtime_error("hit-storm: prefill failed");
        // Latency windows at the reference rate, spread over the run
        // between the capacity probes: a short stall from outside the
        // server moves one window's p50, not the median of all eight.
        std::mt19937_64 rng(derive(args.seed, 2, 0));
        std::vector<const Request *> gpt3_hits(kGpt3HitsPerWindow,
                                               &plan.prefill.back());
        int windows_done = 0;
        auto referenceWindow = [&] {
            if (windows_done == kReferenceWindows)
                return;
            ++windows_done;
            auto items = hitSchedule(zoo_keys, kReferenceRate,
                                     kWindowRequests, rng);
            std::vector<double> window_ms;
            StepResult window = openStep(generator, items, kReferenceRate,
                                         checks, &window_ms);
            logStep(steps_log, "reference", window);
            if (window.p50)
                zoo_window_p50s.push_back(window.p50->value);
            zoo_ms.insert(zoo_ms.end(), window_ms.begin(), window_ms.end());
            for (const OpenItem &item : items)
                request_bytes += item.frame->size();
            request_count += items.size();
            // GPT-3-size hits, one at a time.
            for (Answer &hit :
                 closedLoop(generator, gpt3_hits, table).answers) {
                checks.count(hit);
                if (hit.ok && hit.raw != gpt3_key->expect) {
                    ++checks.failed;
                    checks.fail("GPT-3 exact hit differs from its reference");
                } else if (hit.ok) {
                    gpt3_ms.push_back(hit.latency * 1e3);
                }
                request_bytes += hit.request->frame.size();
                ++request_count;
            }
        };
        // Capacity: double until a rung fails, then bisect the rungs.
        auto rate = [](int rung) {
            return kLadderBase * std::pow(kLadderRatio, rung);
        };
        // A rung that fails is run once more: a stall from outside the
        // server must not end the ladder, while real overload fails
        // both times.
        auto probe = [&](int rung) {
            referenceWindow();
            for (int attempt = 0; attempt < 2; ++attempt) {
                std::mt19937_64 step_rng(derive(args.seed, 3 + attempt, rung));
                auto step_items = hitSchedule(zoo_keys, rate(rung),
                                              kStepRequests, step_rng);
                StepResult step = openStep(generator, step_items, rate(rung),
                                           checks, nullptr);
                logStep(steps_log, "ladder", step);
                if (step.pass)
                    return true;
            }
            return false;
        };
        int lo = -1, hi = -1;
        for (int rung = kLadderStart; rung < kLadderRungs;
             rung += kLadderJump) {
            if (!probe(rung)) {
                hi = rung;
                break;
            }
            lo = rung;
        }
        if (lo < 0 && hi == kLadderStart) {
            // Even the first rung failed: walk down to a passing one.
            for (int rung = kLadderStart - kLadderJump; rung >= 0;
                 rung -= kLadderJump) {
                if (probe(rung)) {
                    lo = rung;
                    break;
                }
                hi = rung;
            }
        }
        if (lo < 0 || hi < 0) {
            checks.fail("capacity ladder: no passing rung below a failing "
                        "one (capacity at the ladder's top or bottom)");
        } else {
            while (hi - lo > 1) {
                int mid = (lo + hi) / 2;
                if (probe(mid))
                    lo = mid;
                else
                    hi = mid;
            }
            served_rps = rate(lo);
            steps_log << "capacity " << jsonNumber(served_rps)
                      << " rps (next rung " << jsonNumber(rate(hi))
                      << " rps failed)\n";
        }
        while (windows_done < kReferenceWindows)
            referenceWindow();
    } else {
        std::vector<OpenItem> open;
        const bool mix = args.workload == "resubmit-mix";
        if (mix) {
            if (zoo_keys.empty() || !gpt3_key)
                throw std::runtime_error("resubmit-mix: prefill failed");
            std::mt19937_64 rng(derive(args.seed, 4, 0));
            // Cover the longest stream; hits stop with the closed loop.
            const double span = args.seconds + 30.0;
            open = hitSchedule(zoo_keys, kMixHitRate,
                               static_cast<std::size_t>(kMixHitRate * span),
                               rng);
            for (double due = 0.5 / kMixGpt3Rate; due < span;
                 due += 1.0 / kMixGpt3Rate)
                open.push_back({due, gpt3_key->frame, &gpt3_key->expect});
            std::stable_sort(open.begin(), open.end(),
                             [](const OpenItem &a, const OpenItem &b) {
                                 return a.due < b.due;
                             });
        }
        std::vector<const Request *> flat;
        for (const auto &round : plan.rounds)
            for (const Request &request : round)
                flat.push_back(&request);
        const std::size_t per_round = plan.rounds.front().size();
        ClosedRun run = closedLoop(
            generator, flat, table, open,
            [&](std::size_t sent, double elapsed) {
                return sent % per_round == 0
                       && sent / per_round >= kMinRounds
                       && elapsed >= args.seconds;
            },
            args.trace ? &spans : nullptr);
        stream = std::move(run.answers);
        const RunReport &report = run.report;
        if (report.transport_error)
            checks.fail("closed loop: transport error");
        for (const Answer &answer : stream) {
            checks.count(answer);
            log << "  " << answer.request->model << " #"
                << answer.request->id << " "
                << serve::provenanceToken(answer.response.provenance)
                << " " << answer.latency * 1e3 << " ms (service "
                << answer.response.service_seconds * 1e3 << " ms)\n";
            request_bytes += answer.request->frame.size();
            ++request_count;
        }
        std::vector<double> hit_ms, late_ms;
        std::size_t sent = 0, hit_failed = 0;
        for (std::size_t i = 0; i < report.open_sent; ++i) {
            const OpenOutcome &outcome = report.open[i];
            ++sent;
            late_ms.push_back(outcome.lateness * 1e3);
            if (outcome.latency < 0.0 || !outcome.ok)
                ++hit_failed;
            else if (open[i].frame == gpt3_key->frame)
                gpt3_ms.push_back(outcome.latency * 1e3);
            else
                hit_ms.push_back(outcome.latency * 1e3);
            request_bytes += open[i].frame->size();
            ++request_count;
        }
        checks.attempted += sent;
        checks.failed += hit_failed;
        if (hit_failed)
            checks.fail(std::to_string(hit_failed)
                        + " exact hits failed or differed");
        if (!hit_ms.empty()) {
            StepResult mixed;
            mixed.rate = kMixHitRate;
            mixed.p50 = nearestRank(hit_ms, 0.5);
            mixed.p99 = nearestRank(hit_ms, 0.99);
            mixed.lateness_max =
                *std::max_element(late_ms.begin(), late_ms.end());
            mixed.backlog = report.backlog_at_last_due;
            logStep(steps_log, "mixed-in zoo exact hits", mixed);
        }
        zoo_ms = latenciesMs(stream, [](const Answer &a) {
            return !a.request->gpt3;
        });
        if (!mix)
            gpt3_ms = latenciesMs(stream, [](const Answer &a) {
                return a.request->gpt3;
            });
        double busy = 0.0;
        for (const Answer &answer : stream)
            busy += answer.latency;
        served_rps = busy > 0.0 ? static_cast<double>(stream.size()) / busy
                                : 0.0;
    }
    net::ServerStats server_after = server.stats();
    serve::ServiceStats service_after = service.stats();
    // Peak resident set while serving; the re-execution and replay
    // below are the benchmark's own work.
    const double rss_mb = peakRssMb();
    log << steps_log.str();

    // Time spent outside the service: zoo-size worker-path answers of
    // the closed loop or, on hit-storm, the zoo exact hits, which the
    // fast path answers with service_seconds 0.
    if (stream.empty())
        for (double ms : zoo_ms)
            net_overhead_s.push_back(ms / 1e3);
    for (const Answer &answer : stream)
        if (answer.ok && !answer.request->gpt3)
            net_overhead_s.push_back(answer.latency
                                     - answer.response.service_seconds);

    // --- deterministic outputs: the cache-mutating stream ----------------
    std::vector<const Answer *> deterministic;
    for (const Answer &answer : prefill)
        deterministic.push_back(&answer);
    const std::size_t fixed_stream =
        plan.rounds.empty() ? 0 : kMinRounds * plan.rounds.front().size();
    for (std::size_t i = 0; i < std::min(fixed_stream, stream.size()); ++i)
        deterministic.push_back(&stream[i]);
    Reexecution reexec = reexecute(deterministic, pipeline, memory, checks);
    log << "re-execution: " << reexec.strategies
        << " strategies, largest performance loss " << reexec.max_loss_pct
        << "% (iteration time +" << reexec.max_loss_time_pct
        << "%) against the " << kLossTarget * 100 << "% target\n";
    std::ostringstream record;
    for (const Answer *answer : deterministic) {
        const net::WireResponse &r = answer->response;
        record << answer->request->model << " "
               << serve::provenanceToken(r.provenance) << " "
               << hexBits(r.similarity) << " " << r.generations_run << " "
               << hexBits(r.best_score) << "\n";
    }
    record << "aicore_saving_pct " << hexBits(reexec.saving_pct) << " over "
           << reexec.strategies << " strategies\n";
    checkDeterminism(std::filesystem::path(args.out)
                         / ("stream-" + code_tag + ".txt"),
                     record.str(), checks, log);

    double zoo_p50 = requireP50(zoo_ms, "zoo-size latency", checks, log);
    if (!zoo_window_p50s.empty()) {
        zoo_p50 = median(zoo_window_p50s);
        log << "zoo-size latency: median of " << zoo_window_p50s.size()
            << " window p50s " << zoo_p50 << " ms\n";
    }
    double gpt3_p50 = requireP50(gpt3_ms, "GPT-3-size latency", checks, log);
    if (served_rps <= 0.0)
        checks.fail("no served rate");
    std::vector<Metric> e2e = {
        {"setup_s", setup_s, "s"},
        {"zoo_p50_ms", zoo_p50, "ms"},
        {"gpt3_p50_ms", gpt3_p50, "ms"},
        {"served_rps", served_rps, "1/s"},
        {"aicore_saving_pct", reexec.saving_pct, "%"},
        {"rss_mb", rss_mb, "MB"},
    };

    const std::filesystem::path e2e_path =
        std::filesystem::path(args.out) / ("e2e-" + code_tag + ".txt");
    if (!args.trace) {
        std::ofstream out(e2e_path);
        out << std::setprecision(17);
        for (const Metric &m : e2e)
            out << m.name << " " << m.value << "\n";
    }
    std::vector<Metric> metrics = e2e;
    if (args.trace) {
        // --- the traced replay, layer by layer --------------------------
        // Walk the cache-mutating sequence in order, tracking what
        // findSimilar could see, and replay the zoo-size requests of the
        // prefill (hit-storm) or of the timed stream.  GPT-3 requests
        // only feed the donor tracking: per-layer timings are of the
        // zoo class, and GPT-3's codec is timed apart below.
        std::vector<const Answer *> mutating;
        for (const Answer &answer : prefill)
            mutating.push_back(&answer);
        for (const Answer &answer : stream)
            mutating.push_back(&answer);
        const std::size_t replay_begin =
            plan.rounds.empty() ? 0 : prefill.size();
        std::vector<ServedRequest> served;
        std::vector<std::pair<std::uint64_t, const std::string *>> gpt3_frames;
        std::vector<std::pair<serve::Fingerprint, const Answer *>> inserted;
        for (std::size_t i = 0; i < mutating.size(); ++i) {
            const Answer &answer = *mutating[i];
            if (!answer.ok)
                continue;
            models::Workload workload = buildWorkload(*answer.request, memory);
            serve::Fingerprint fp = serve::fingerprintRequest(
                workload, chip, kLossTarget, answer.request->seed);
            std::vector<double> donor_mhz;
            if (answer.response.provenance == serve::Provenance::WarmStart) {
                // The most similar entry inserted before it.
                double best = -1.0;
                for (const auto &[donor_fp, donor] : inserted) {
                    double sim = serve::fingerprintSimilarity(fp, donor_fp);
                    if (sim > best) {
                        best = sim;
                        donor_mhz = donor->response.strategy.mhz_per_stage;
                    }
                }
                if (std::bit_cast<std::uint64_t>(best)
                    != std::bit_cast<std::uint64_t>(answer.response.similarity))
                    checks.fail("replayed donor similarity differs from the "
                                "served one");
            }
            if (answer.request->gpt3) {
                gpt3_frames.emplace_back(answer.request->id,
                                         &answer.request->frame);
            } else if (i >= replay_begin) {
                ServedRequest s;
                s.id = answer.request->id;
                s.workload = std::move(workload);
                s.frame = &answer.request->frame;
                s.perf_loss_target = kLossTarget;
                s.seed = answer.request->seed;
                s.response = answer.response;
                s.donor_mhz = std::move(donor_mhz);
                served.push_back(std::move(s));
            }
            inserted.emplace_back(std::move(fp), &answer);
        }
        if (served.empty() || gpt3_frames.empty())
            throw std::runtime_error("traced replay: nothing to replay");

        double calibrate_s = 0.0;
        {
            long span = spans.open(0, "power.calibrate", -1);
            auto constants = opdvfs::power::calibrateOffline(chip);
            (void)constants;
            spans.close(span);
            calibrate_s = spans.spans()[static_cast<std::size_t>(span)].end
                          - spans.spans()[static_cast<std::size_t>(span)].start;
        }
        const int warm_generations = std::max(
            1, static_cast<int>(std::lround(
                   pipeline.ga.generations
                   * service.options().warm_generation_fraction)));
        // Every zoo request once, cycled until each layer has its samples.
        std::vector<PhaseTimes> phases =
            replayLayers(served, std::max(served.size(), kLayerSamples),
                         pipeline, warm_generations, kWorkers, spans);
        CodecTimes gpt3_codec =
            replayCodec(gpt3_frames, kLayerSamples, spans);

        auto collect = [&](auto field) {
            std::vector<double> out;
            for (const PhaseTimes &p : phases)
                out.push_back(field(p));
            return out;
        };
        std::vector<double> profile_calls;
        double search_total = 0.0, serial_total = 0.0;
        double evaluations = 0.0;
        for (const PhaseTimes &p : phases) {
            profile_calls.insert(profile_calls.end(), p.profile_calls.begin(),
                                 p.profile_calls.end());
            search_total += p.search;
            serial_total += p.search_serial;
            evaluations += static_cast<double>(p.evaluations);
            if (!p.identical)
                checks.fail("replayed GaResult is not bit-identical to the "
                            "served one");
        }
        // Every per-layer timing is a p50 with kMinBeyond samples beyond
        // it; one that has too few fails the run.
        auto p50ms = [&](const std::vector<double> &seconds,
                         const std::string &what) {
            std::vector<double> values;
            for (double s : seconds)
                values.push_back(s * 1e3);
            auto q = nearestRank(values, 0.5);
            if (!q) {
                checks.fail(what + ": only " + std::to_string(values.size())
                            + " samples, too few for a p50");
                return 0.0;
            }
            log << what << ": p50 " << q->value << " ms (n=" << q->samples
                << ", " << q->beyond << " beyond)\n";
            return q->value;
        };
        auto phaseP50ms = [&](double PhaseTimes::*phase,
                              const std::string &what) {
            std::vector<double> seconds;
            for (const PhaseTimes &p : phases)
                seconds.push_back(p.*phase);
            return p50ms(seconds, what);
        };
        double fast_hits = static_cast<double>(server_after.fast_path_hits
                                               - server_before.fast_path_hits);
        double frames = static_cast<double>(server_after.frames_in
                                            - server_before.frames_in);
        std::size_t warm = 0, lookups = 0;
        for (const Answer &answer : stream) {
            if (!answer.ok || !answer.request->allow_warm)
                continue;
            ++lookups;
            warm += answer.response.provenance == serve::Provenance::WarmStart;
        }
        double rejected = static_cast<double>(
            (service_after.rejected - service_before.rejected)
            + (server_after.responses_busy - server_before.responses_busy));
        const double phase_count = static_cast<double>(phases.size());
        metrics = {
            {"net.req_decode_ms", phaseP50ms(&PhaseTimes::decode, "net.decode"), "ms"},
            {"net.req_decode_gpt3_ms", p50ms(gpt3_codec.decode, "net.decode gpt3"), "ms"},
            {"net.resp_encode_ms", phaseP50ms(&PhaseTimes::encode, "net.encode"), "ms"},
            {"net.req_kb", request_count ? static_cast<double>(request_bytes) / request_count / 1024.0 : 0.0, "KB"},
            {"net.overhead_ms", p50ms(net_overhead_s, "net.overhead"), "ms"},
            {"serve.fingerprint_ms", phaseP50ms(&PhaseTimes::fingerprint, "serve.fingerprint"), "ms"},
            {"serve.fingerprint_gpt3_ms", p50ms(gpt3_codec.fingerprint, "serve.fingerprint gpt3"), "ms"},
            {"serve.fast_path_share", frames > 0 ? fast_hits / frames : 0.0, "ratio"},
            {"serve.warm_share", stream.empty() ? 0.0 : static_cast<double>(warm) / stream.size(), "ratio"},
            {"serve.similar_scanned_per_lookup", lookups ? static_cast<double>(service_after.similar_scanned - service_before.similar_scanned) / lookups : 0.0, "count"},
            {"serve.rejected", rejected, "count"},
            {"trace.profile_ms", p50ms(profile_calls, "trace.profile per call"), "ms"},
            {"trace.measure_ms", phaseP50ms(&PhaseTimes::measure, "trace.measure"), "ms"},
            {"perf.fit_ms", phaseP50ms(&PhaseTimes::fit, "perf.fit"), "ms"},
            {"power.op_power_ms", phaseP50ms(&PhaseTimes::op_power, "power.op_power"), "ms"},
            {"power.calibrate_s", calibrate_s, "s"},
            {"dvfs.preprocess_ms", phaseP50ms(&PhaseTimes::preprocess, "dvfs.preprocess"), "ms"},
            {"dvfs.stages", mean(collect([](const PhaseTimes &p) { return static_cast<double>(p.stages); })), "count"},
            {"dvfs.plan_ms", phaseP50ms(&PhaseTimes::plan, "dvfs.plan"), "ms"},
            {"dvfs.search_ms", phaseP50ms(&PhaseTimes::search, "dvfs.search"), "ms"},
            {"dvfs.evaluations", evaluations / phase_count, "count"},
            {"dvfs.evals_per_s", search_total > 0 ? evaluations / search_total : 0.0, "1/s"},
            {"dvfs.converged_at", mean(collect([](const PhaseTimes &p) { return static_cast<double>(p.converged_at); })), "count"},
            {"dvfs.useful_gen_ratio", mean(collect([](const PhaseTimes &p) { return p.generations ? static_cast<double>(p.converged_at) / p.generations : 0.0; })), "ratio"},
            {"dvfs.search_pool_over_serial", serial_total > 0 ? search_total / serial_total : 0.0, "ratio"},
        };

        // Per-phase p50 self times of the zoo-size searches against the
        // end-to-end zoo p50, and the tracing overhead.
        const std::pair<double PhaseTimes::*, const char *> search_phases[] = {
            {&PhaseTimes::profile, "trace.profile"},
            {&PhaseTimes::fit, "perf.fit"},
            {&PhaseTimes::op_power, "power.op_power"},
            {&PhaseTimes::preprocess, "dvfs.preprocess"},
            {&PhaseTimes::search, "dvfs.search"},
            {&PhaseTimes::plan, "dvfs.plan"},
            {&PhaseTimes::measure, "trace.measure"}};
        double phase_sum = 0.0;
        for (auto [phase, what] : search_phases)
            phase_sum += phaseP50ms(phase, std::string("phase ") + what);
        // Tracing overhead: this run's end-to-end metrics minus those of
        // the last untraced run of the same code, workload and seed.
        std::map<std::string, double> untraced;
        {
            std::ifstream in(e2e_path);
            std::string name;
            double value = 0.0;
            while (in >> name >> value)
                untraced[name] = value;
        }
        // The phase sum is a search's time: compared only where the
        // zoo-size class is a search (cold-zoo, resubmit-mix), with this
        // run's served zoo p50 and with the untraced one of this seed.
        const bool searches = !plan.rounds.empty();
        const bool compare = searches && untraced.count("zoo_p50_ms") > 0;
        const double base_p50 = compare ? untraced["zoo_p50_ms"] : 0.0;
        std::ostringstream summary;
        summary << "{\"meta\": " << metaJson(args)
                << ", \"replayed_calls\": " << phases.size()
                << ", \"zoo_phase_p50_sum_ms\": " << jsonNumber(phase_sum)
                << ", \"phase_sum_over_traced_zoo_p50\": "
                << (searches ? jsonNumber(phase_sum / zoo_p50) : "null")
                << ", \"untraced_zoo_p50_ms\": "
                << (compare ? jsonNumber(base_p50) : "null")
                << ", \"phase_sum_over_zoo_p50\": "
                << (compare ? jsonNumber(phase_sum / base_p50) : "null")
                << ", \"traced_e2e\": " << metricsJson(e2e)
                << ", \"tracing_overhead\": {";
        bool first = true;
        for (const Metric &m : e2e) {
            if (!untraced.count(m.name))
                continue;
            summary << (first ? "" : ", ") << "\"" << m.name
                    << "\": " << jsonNumber(m.value - untraced[m.name]);
            first = false;
        }
        summary << "}}\n";
        std::ofstream(std::filesystem::path(args.out)
                      / ("trace-summary-" + tag + ".json"))
            << summary.str();
        std::ofstream span_file(std::filesystem::path(args.out)
                                / ("spans-" + tag + ".jsonl"));
        spans.writeJsonLines(span_file);
        log << "traced replay: " << phases.size()
            << " zoo-size calls; zoo-size phase p50 sum " << phase_sum
            << " ms";
        if (searches)
            log << " vs served zoo p50 " << zoo_p50 << " ms";
        if (compare)
            log << " vs untraced zoo p50 " << base_p50 << " ms";
        log << "\n";
    }

    for (const std::string &problem : checks.problems)
        log << "CHECK FAILED: " << problem << "\n";
    const bool correct = checks.problems.empty() && checks.failed == 0;
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << checks.attempted
           << ", \"failed\": " << checks.failed
           << ", \"metrics\": " << metricsJson(metrics) << "}";
    std::cout << "{\"meta\": " << metaJson(args) << "}\n"
              << result.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(parseArgs(argc, argv));
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
}
