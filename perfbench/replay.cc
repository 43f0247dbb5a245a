#include "replay.h"

#include <algorithm>
#include <bit>
#include <future>
#include <iomanip>
#include <stdexcept>

#include "dvfs/evaluator.h"
#include "dvfs/executor.h"
#include "dvfs/preprocess.h"
#include "npu/freq_table.h"
#include "perf/perf_model.h"
#include "power/online_calibration.h"
#include "power/power_model.h"
#include "serve/fingerprint.h"
#include "serve/thread_pool.h"
#include "trace/workload_runner.h"

namespace perfbench {

namespace dvfs = opdvfs::dvfs;
namespace net = opdvfs::net;

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - origin_)
        .count();
}

long
SpanRecorder::open(std::uint64_t request, std::string name, long parent)
{
    spans_.push_back({request, std::move(name), parent, now(), 0.0});
    return static_cast<long>(spans_.size()) - 1;
}

void
SpanRecorder::close(long index)
{
    spans_[static_cast<std::size_t>(index)].end = now();
}

void
SpanRecorder::add(std::uint64_t request, std::string name, long parent,
                  double start, double end)
{
    spans_.push_back({request, std::move(name), parent, start, end});
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    // Children of one parent never overlap (the replay is sequential),
    // so the covered part is the sum of their durations.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    return self;
}

void
SpanRecorder::writeJsonLines(std::ostream &os) const
{
    std::vector<double> self = selfTimes();
    os << std::setprecision(9);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        os << "{\"id\": " << i << ", \"request\": " << span.request
           << ", \"name\": \"" << span.name << "\", \"parent\": "
           << span.parent << ", \"start\": " << span.start
           << ", \"end\": " << span.end << ", \"self\": " << self[i]
           << "}\n";
    }
}

namespace {

/** Times @p body as a span named @p name under @p parent. */
template <typename Body>
double
timed(SpanRecorder &spans, std::uint64_t request, const char *name,
      long parent, Body &&body)
{
    long span = spans.open(request, name, parent);
    body();
    spans.close(span);
    const Span &done = spans.spans()[static_cast<std::size_t>(span)];
    return done.end - done.start;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameGa(const dvfs::GaResult &a, const dvfs::GaResult &b)
{
    return sameBits(a.best_score, b.best_score)
           && sameBits(a.pre_refine_score, b.pre_refine_score)
           && a.best_mhz == b.best_mhz && a.converged_at == b.converged_at
           && a.score_history == b.score_history;
}

/** The replayed search reproduces what the server sent back. */
bool
matchesServed(const dvfs::GaResult &ga, const net::WireResponse &served)
{
    if (!sameBits(ga.best_score, served.best_score)
        || ga.best_mhz != served.strategy.mhz_per_stage)
        return false;
    if (!served.strategy.meta)
        return false;
    return sameBits(ga.pre_refine_score, served.strategy.meta->pre_refine_score)
           && ga.converged_at == served.strategy.meta->converged_at;
}

PhaseTimes
replayOne(const ServedRequest &request, const dvfs::PipelineOptions &base,
          int warm_generations, opdvfs::serve::ThreadPool &pool,
          SpanRecorder &spans)
{
    PhaseTimes t;
    const std::uint64_t id = request.id;
    const long root = spans.open(id, "request", -1);
    const opdvfs::npu::NpuConfig &chip = base.chip;
    opdvfs::npu::FreqTable table(chip.freq);

    std::size_t consumed = 0;
    auto frame = net::peelFrame(*request.frame, &consumed);
    if (!frame)
        throw std::runtime_error("replay: request frame does not peel");
    t.decode = timed(spans, id, "net.decode", root, [&] {
        net::WireRequest decoded = net::decodeRequest(frame->payload);
        (void)decoded;
    });
    t.fingerprint = timed(spans, id, "serve.fingerprint", root, [&] {
        auto fp = opdvfs::serve::fingerprintRequest(
            request.workload, chip, request.perf_loss_target, request.seed);
        (void)fp;
    });

    // --- the profile-and-model half, as EnergyPipeline::prepare ------------
    opdvfs::trace::WorkloadRunner runner(chip);
    opdvfs::power::PowerModel power_model(*base.constants, table);
    opdvfs::perf::PerfModelRepository perf_repo;
    opdvfs::power::OnlinePowerCalibrator online(power_model);
    const double max_freq = *std::max_element(base.profile_freqs_mhz.begin(),
                                              base.profile_freqs_mhz.end());
    opdvfs::trace::RunResult baseline;
    std::vector<opdvfs::trace::RunResult> runs;
    for (double f : base.profile_freqs_mhz) {
        opdvfs::trace::RunOptions run_options;
        run_options.initial_mhz = f;
        run_options.warmup_seconds = base.warmup_seconds;
        run_options.sample_period = base.profile_sample_period;
        run_options.seed = request.seed * 31 + static_cast<std::uint64_t>(f);
        opdvfs::trace::RunResult run;
        double call = timed(spans, id, "trace.profile", root, [&] {
            run = runner.run(request.workload, run_options);
        });
        t.profile += call;
        t.profile_calls.push_back(call);
        perf_repo.addProfile(f, run.records);
        runs.push_back(std::move(run));
    }
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (base.profile_freqs_mhz[i] == max_freq)
            baseline = runs[i];
    t.fit = timed(spans, id, "perf.fit", root, [&] {
        opdvfs::perf::PerfBuildOptions perf_options;
        perf_options.kind = base.fit_kind;
        perf_repo.fitAll(perf_options);
    });
    std::unordered_map<std::uint64_t, opdvfs::power::OpPowerModel> op_power;
    t.op_power = timed(spans, id, "power.op_power", root, [&] {
        for (const auto &run : runs)
            online.addRun(run);
        op_power = online.perOpModels();
    });
    dvfs::PreprocessResult prep;
    t.preprocess = timed(spans, id, "dvfs.preprocess", root, [&] {
        prep = dvfs::preprocess(baseline.records, base.preprocess);
    });
    t.stages = prep.stages.size();

    // --- the search, with the pipeline's seed derivation --------------------
    dvfs::StageEvaluator evaluator(prep.stages, perf_repo, power_model,
                                   op_power, table);
    dvfs::GaOptions ga = base.ga;
    ga.perf_loss_target = request.perf_loss_target;
    ga.seed = base.ga_seed ? *base.ga_seed : request.seed * 7 + 13;
    if (!request.donor_mhz.empty()) {
        ga.prior_individuals.push_back(request.donor_mhz);
        ga.generations = warm_generations;
    }
    t.generations = ga.generations;
    std::uint64_t evaluations = 0;
    ga.parallel_for = [&](std::size_t count,
                          const std::function<void(std::size_t)> &fn) {
        evaluations += count;
        pool.parallelFor(count, fn);
    };
    dvfs::GaResult pooled;
    t.search = timed(spans, id, "dvfs.search", root, [&] {
        pooled = dvfs::searchStrategy(evaluator, prep.stages, ga);
    });
    t.evaluations = evaluations;
    t.converged_at = pooled.converged_at;
    ga.parallel_for = nullptr;
    dvfs::GaResult serial;
    t.search_serial = timed(spans, id, "dvfs.search_serial", root, [&] {
        serial = dvfs::searchStrategy(evaluator, prep.stages, ga);
    });
    t.identical = sameGa(pooled, serial)
                  && matchesServed(pooled, request.response);

    // --- plan, the measure run the service discards, encode ------------------
    dvfs::ExecutionPlan plan;
    t.plan = timed(spans, id, "dvfs.plan", root, [&] {
        plan = dvfs::planExecution(prep.stages, pooled.best_mhz,
                                   baseline.records, base.executor);
    });
    t.measure = timed(spans, id, "trace.measure", root, [&] {
        opdvfs::trace::RunOptions measure_options;
        measure_options.initial_mhz = plan.initial_mhz;
        measure_options.warmup_seconds = base.warmup_seconds;
        measure_options.seed = request.seed * 131 + 7;
        auto run = runner.run(request.workload, measure_options,
                              plan.triggers);
        (void)run;
    });
    t.encode = timed(spans, id, "net.encode", root, [&] {
        std::string payload = net::encodeResponse(request.response);
        (void)payload;
    });
    spans.close(root);
    return t;
}

} // namespace

std::vector<PhaseTimes>
replayLayers(const std::vector<ServedRequest> &served, std::size_t calls,
             const dvfs::PipelineOptions &options, int warm_generations,
             std::size_t workers, SpanRecorder &spans)
{
    if (!options.constants)
        throw std::invalid_argument("replay: pipeline constants unset");
    // The service runs each request on one of its workers, which then
    // joins the GA's parallel_for: replay on a pool worker the same way.
    opdvfs::serve::ThreadPool pool(workers);
    std::vector<PhaseTimes> times;
    for (std::size_t call = 0; call < calls; ++call) {
        const ServedRequest &request = served[call % served.size()];
        std::promise<PhaseTimes> result;
        pool.submit([&] {
            try {
                result.set_value(replayOne(request, options,
                                           warm_generations, pool, spans));
            } catch (...) {
                result.set_exception(std::current_exception());
            }
        });
        times.push_back(result.get_future().get());
    }
    return times;
}

CodecTimes
replayCodec(
    const std::vector<std::pair<std::uint64_t, const std::string *>> &frames,
    std::size_t calls, SpanRecorder &spans)
{
    CodecTimes times;
    for (std::size_t call = 0; call < calls; ++call) {
        const auto &[id, bytes] = frames[call % frames.size()];
        std::size_t consumed = 0;
        auto frame = net::peelFrame(*bytes, &consumed);
        if (!frame)
            throw std::runtime_error("replay: request frame does not peel");
        const long root = spans.open(id, "codec", -1);
        net::WireRequest decoded;
        times.decode.push_back(timed(spans, id, "net.decode", root, [&] {
            decoded = net::decodeRequest(frame->payload);
        }));
        times.fingerprint.push_back(
            timed(spans, id, "serve.fingerprint", root, [&] {
                auto fp = opdvfs::serve::fingerprintRequest(
                    decoded.workload, decoded.chip, decoded.perf_loss_target,
                    decoded.seed);
                (void)fp;
            }));
        spans.close(root);
    }
    return times;
}

} // namespace perfbench
