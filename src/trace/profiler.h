/**
 * @file
 * Operator-level profiler: the stand-in for the CANN profiler the
 * paper uses to collect execution sequences, per-operator timings and
 * pipeline-utilisation ratios (Sect. 6.2 step 1).
 *
 * Records carry realistic measurement noise; downstream model fitting
 * and classification never see the simulator's ground truth directly.
 */

#ifndef OPDVFS_TRACE_PROFILER_H
#define OPDVFS_TRACE_PROFILER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "npu/npu_chip.h"
#include "ops/op.h"

namespace opdvfs::trace {

/** One profiled operator execution. */
struct OpRecord
{
    /** Operator id: its index within the iteration sequence. */
    std::uint64_t op_id = 0;
    std::string type;
    npu::OpCategory category = npu::OpCategory::Compute;
    Tick start = 0;
    Tick end = 0;
    /** Measured (noisy) duration in seconds. */
    double duration_s = 0.0;
    /** Core frequency when the operator retired. */
    double f_mhz = 0.0;
    /** Measured (noisy) pipeline-utilisation ratios. */
    npu::PipelineRatios ratios;
};

/** Profiler noise configuration. */
struct ProfilerNoise
{
    /** Relative sigma of duration measurements. */
    double duration_sigma = 0.006;
    /** Absolute sigma of pipeline ratios. */
    double ratio_sigma = 0.015;
};

/** Observes a chip and accumulates operator records. */
class Profiler : public npu::NpuChip::OpObserver
{
  public:
    Profiler(npu::NpuChip &chip, ProfilerNoise noise, std::uint64_t seed);

    /** Register the metadata of the ops about to run. */
    void registerSequence(const ops::OpSequence &sequence);

    void opStarted(std::uint64_t op_id, Tick start) override;
    void opFinished(std::uint64_t op_id, Tick start, Tick end,
                    double f_mhz_at_end) override;

    /** All records so far, in completion order. */
    const std::vector<OpRecord> &records() const { return records_; }

    /** Drop accumulated records. */
    void clear() { records_.clear(); }

    /**
     * Warm-up mode: finished operators make exactly the noise draws
     * a record would (same count, same order), but no record is
     * built or kept.  The noise stream therefore stays where a
     * record-then-clear() warm-up would leave it, and the records of
     * the measured iteration that follows are bit-identical to it.
     */
    void setWarmup(bool warmup) { warmup_ = warmup; }

  private:
    npu::NpuChip &chip_;
    ProfilerNoise noise_;
    Rng rng_;
    std::unordered_map<std::uint64_t, const ops::Op *> metadata_;
    std::vector<OpRecord> records_;
    bool warmup_ = false;
};

} // namespace opdvfs::trace

#endif // OPDVFS_TRACE_PROFILER_H
