/**
 * @file
 * The end-to-end energy-optimisation pipeline of paper Fig. 1:
 *
 *   profile the workload -> build performance and power models ->
 *   classify + preprocess -> genetic strategy search -> execute the
 *   strategy with fine-grained SetFreq -> measure.
 *
 * This is the library's top-level entry point; the Table 3 / Fig. 18
 * benches and the examples all drive it.  It runs in three steps:
 *
 *   prepare()  calibrate, profile, fit the models, preprocess;
 *   search()   GA strategy search + execution plan (no simulation);
 *   assess()   re-execute the plan and measure it (optionally also
 *              under the runtime guard).
 *
 * optimize() is the composition of the three.  A caller that only
 * needs the strategy (the serving layer) calls prepare() and
 * search() and gets the same strategy and GaResult bit for bit,
 * without paying for the measurement run.
 */

#ifndef OPDVFS_DVFS_PIPELINE_H
#define OPDVFS_DVFS_PIPELINE_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dvfs/executor.h"
#include "dvfs/genetic.h"
#include "dvfs/guard.h"
#include "dvfs/preprocess.h"
#include "dvfs/strategy_io.h"
#include "models/workload.h"
#include "npu/npu_chip.h"
#include "perf/perf_model.h"
#include "power/offline_calibration.h"
#include "power/online_calibration.h"

namespace opdvfs::dvfs {

/** Pipeline configuration. */
struct PipelineOptions
{
    /** The device under optimisation. */
    npu::NpuConfig chip;
    /** Allowed relative performance loss. */
    double perf_loss_target = 0.02;
    PreprocessOptions preprocess;
    /**
     * GA hyper-parameters.  `ga.seed` is *not* used by the pipeline:
     * the search seed is derived from `seed` below unless `ga_seed`
     * pins it explicitly (seed-forwarding audit: a request-supplied
     * seed reproduces the same GaResult through every path).
     */
    GaOptions ga;
    /** When set, the GA uses exactly this seed instead of the
     *  `seed`-derived one. */
    std::optional<std::uint64_t> ga_seed;
    ExecutorOptions executor;
    perf::FitFunction fit_kind = perf::FitFunction::QuadOverF;
    /** Frequencies profiled to build the models (Sect. 7.4). */
    std::vector<double> profile_freqs_mhz = {1000.0, 1800.0};
    /** Warm-up before each profiled/measured iteration, seconds. */
    double warmup_seconds = 20.0;
    /** Fine-grained telemetry period for alpha calibration. */
    Tick profile_sample_period = 2 * kTicksPerMs;
    /** Reuse previously calibrated constants (skip offline pass). */
    std::optional<power::CalibratedConstants> constants;
    /**
     * Also assess the generated strategy under the runtime guard
     * (multi-iteration run honouring `chip.faults`).  Off by default:
     * the classic pipeline path stays bit-for-bit unchanged.
     */
    bool assess_guarded = false;
    /** Guard tuning for the assessment run. */
    GuardOptions guard;
    /** Measured iterations of the guarded assessment. */
    int guarded_iterations = 12;
    std::uint64_t seed = 1;
};

/**
 * The profile-and-model step of the pipeline: everything a strategy
 * search — or a surrogate prediction — needs, with no search run yet.
 * Produced by EnergyPipeline::prepare(); reused by the serving layer
 * so a predicted first answer and its asynchronous GA refinement
 * share one profiling pass instead of re-profiling the workload.
 */
struct PreparedWorkload
{
    power::CalibratedConstants constants;
    /** Baseline measurement at the maximum profile frequency. */
    trace::RunResult baseline;
    perf::PerfModelRepository perf_models;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;
    PreprocessResult prep;
};

/** The search step's output: the GA's answer and how to execute it. */
struct SearchedStrategy
{
    GaResult ga;
    ExecutionPlan plan;
};

/** Everything the pipeline produced. */
struct PipelineResult
{
    power::CalibratedConstants constants;
    /** Baseline measurement at the maximum frequency. */
    trace::RunResult baseline;
    /** Measurement under the generated DVFS strategy. */
    trace::RunResult dvfs;
    PreprocessResult prep;
    GaResult ga;
    ExecutionPlan plan;
    /** Guarded multi-iteration assessment (when `assess_guarded`). */
    std::optional<GuardedRunResult> guarded;
    /**
     * The fitted per-operator performance models and per-operator
     * power corrections the search ran on.  Exposed so downstream
     * consumers (the drift watchdog, strategy regeneration) can score
     * residuals against — and recalibrate — exactly the models that
     * produced the strategy.
     */
    perf::PerfModelRepository perf_models;
    std::unordered_map<std::uint64_t, power::OpPowerModel> op_power;

    /** Relative iteration-time increase under DVFS. */
    double perfLoss() const;
    /** Relative AICore average-power reduction. */
    double aicoreReduction() const;
    /** Relative SoC average-power reduction. */
    double socReduction() const;

    /** The generated strategy, ready for saveStrategy()/re-execution. */
    Strategy strategy() const;
};

/** Runs the Fig. 1 pipeline against a simulated chip. */
class EnergyPipeline
{
  public:
    explicit EnergyPipeline(PipelineOptions options)
        : options_(std::move(options))
    {}

    /**
     * Optimise one workload end to end: prepare(), search(), then
     * assess() the result.
     */
    PipelineResult optimize(const models::Workload &workload) const;

    /**
     * Step 1: calibrate (unless constants are supplied), profile at
     * the configured frequencies, fit performance/power models and
     * preprocess into candidate stages.
     */
    PreparedWorkload prepare(const models::Workload &workload) const;

    /**
     * Step 2: the GA strategy search (Sect. 6.3) over @p prepared and
     * the SetFreq plan for its best strategy (Sect. 7.1).  Pure model
     * evaluation: nothing is simulated.  Under the same options and
     * seed the result equals optimize()'s `ga` and `plan` bit for bit.
     */
    SearchedStrategy search(const PreparedWorkload &prepared) const;

    const PipelineOptions &options() const { return options_; }

  private:
    /**
     * Step 3: execute @p result's plan on a fresh chip and measure it
     * into `result.dvfs`; with `assess_guarded` also run the guarded
     * multi-iteration assessment into `result.guarded`.  Reads the
     * baseline and plan already in @p result.
     */
    void assess(const models::Workload &workload,
                PipelineResult &result) const;

    PipelineOptions options_;
};

} // namespace opdvfs::dvfs

#endif // OPDVFS_DVFS_PIPELINE_H
