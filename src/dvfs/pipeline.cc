#include "dvfs/pipeline.h"

#include <algorithm>
#include <stdexcept>

#include "power/online_calibration.h"
#include "power/power_model.h"
#include "trace/workload_runner.h"

namespace opdvfs::dvfs {

double
PipelineResult::perfLoss() const
{
    return dvfs.iteration_seconds / baseline.iteration_seconds - 1.0;
}

double
PipelineResult::aicoreReduction() const
{
    return 1.0 - dvfs.aicore_avg_w / baseline.aicore_avg_w;
}

double
PipelineResult::socReduction() const
{
    return 1.0 - dvfs.soc_avg_w / baseline.soc_avg_w;
}

Strategy
PipelineResult::strategy() const
{
    Strategy out;
    out.stages = prep.stages;
    out.mhz_per_stage = ga.best_mhz;
    out.plan = plan;
    return out;
}

PreparedWorkload
EnergyPipeline::prepare(const models::Workload &workload) const
{
    PreparedWorkload prepared;
    npu::FreqTable table(options_.chip.freq);
    trace::WorkloadRunner runner(options_.chip);

    // --- power-model construction: offline half (Fig. 11) ----------------
    prepared.constants = options_.constants
        ? *options_.constants
        : power::calibrateOffline(options_.chip);
    power::PowerModel power_model(prepared.constants, table);

    // --- profiling runs at the model-building frequencies ----------------
    if (options_.profile_freqs_mhz.size() < 2)
        throw std::invalid_argument("EnergyPipeline: need >= 2 profile "
                                    "frequencies");

    perf::PerfModelRepository perf_repo;
    power::OnlinePowerCalibrator online(power_model);

    double max_profile_freq = *std::max_element(
        options_.profile_freqs_mhz.begin(), options_.profile_freqs_mhz.end());

    for (double f : options_.profile_freqs_mhz) {
        trace::RunOptions run_options;
        run_options.initial_mhz = f;
        run_options.warmup_seconds = options_.warmup_seconds;
        run_options.sample_period = options_.profile_sample_period;
        run_options.seed =
            options_.seed * 31 + static_cast<std::uint64_t>(f);
        trace::RunResult run = runner.run(workload, run_options);

        perf_repo.addProfile(f, run.records);
        online.addRun(run);
        if (f == max_profile_freq)
            prepared.baseline = run;
    }

    perf::PerfBuildOptions perf_options;
    perf_options.kind = options_.fit_kind;
    perf_repo.fitAll(perf_options);
    prepared.perf_models = std::move(perf_repo);

    prepared.op_power = online.perOpModels();

    // --- classification + preprocessing (Sect. 6.1/6.2) -------------------
    prepared.prep = preprocess(prepared.baseline.records,
                               options_.preprocess);
    return prepared;
}

SearchedStrategy
EnergyPipeline::search(const PreparedWorkload &prepared) const
{
    npu::FreqTable table(options_.chip.freq);
    power::PowerModel power_model(prepared.constants, table);

    // --- genetic strategy search (Sect. 6.3) ------------------------------
    StageEvaluator evaluator(prepared.prep.stages, prepared.perf_models,
                             power_model, prepared.op_power, table);
    GaOptions ga_options = options_.ga;
    ga_options.perf_loss_target = options_.perf_loss_target;
    ga_options.seed =
        options_.ga_seed ? *options_.ga_seed : options_.seed * 7 + 13;

    SearchedStrategy searched;
    searched.ga = searchStrategy(evaluator, prepared.prep.stages, ga_options);

    // --- plan the strategy's execution (Sect. 7.1) ------------------------
    searched.plan = planExecution(prepared.prep.stages, searched.ga.best_mhz,
                                  prepared.baseline.records,
                                  options_.executor);
    return searched;
}

void
EnergyPipeline::assess(const models::Workload &workload,
                       PipelineResult &result) const
{
    // --- execute the strategy and measure it ------------------------------
    trace::WorkloadRunner runner(options_.chip);
    trace::RunOptions dvfs_options;
    dvfs_options.initial_mhz = result.plan.initial_mhz;
    dvfs_options.warmup_seconds = options_.warmup_seconds;
    dvfs_options.seed = options_.seed * 131 + 7;
    result.dvfs = runner.run(workload, dvfs_options, result.plan.triggers);

    // --- optional guarded assessment (faults honoured) --------------------
    if (options_.assess_guarded) {
        GuardedRunOptions guarded_options;
        guarded_options.guard = options_.guard;
        guarded_options.guard.perf_loss_target = options_.perf_loss_target;
        guarded_options.iterations = options_.guarded_iterations;
        guarded_options.run = dvfs_options;
        result.guarded = runGuarded(options_.chip, workload,
                                    result.plan.triggers,
                                    result.baseline.iteration_seconds,
                                    guarded_options);
    }
}

PipelineResult
EnergyPipeline::optimize(const models::Workload &workload) const
{
    PreparedWorkload prepared = prepare(workload);
    SearchedStrategy searched = search(prepared);

    PipelineResult result;
    result.constants = prepared.constants;
    result.baseline = std::move(prepared.baseline);
    result.perf_models = std::move(prepared.perf_models);
    result.op_power = std::move(prepared.op_power);
    result.prep = std::move(prepared.prep);
    result.ga = std::move(searched.ga);
    result.plan = std::move(searched.plan);

    assess(workload, result);
    return result;
}

} // namespace opdvfs::dvfs
