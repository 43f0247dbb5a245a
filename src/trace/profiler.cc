#include "trace/profiler.h"

#include <algorithm>
#include <stdexcept>

#include "npu/aicore_timeline.h"

namespace opdvfs::trace {

Profiler::Profiler(npu::NpuChip &chip, ProfilerNoise noise,
                   std::uint64_t seed)
    : chip_(chip), noise_(noise), rng_(seed)
{
    chip.setObserver(this);
}

void
Profiler::registerSequence(const ops::OpSequence &sequence)
{
    for (const auto &op : sequence)
        metadata_[op.id] = &op;
}

void
Profiler::opStarted(std::uint64_t, Tick)
{
}

void
Profiler::opFinished(std::uint64_t op_id, Tick start, Tick end,
                     double f_mhz_at_end)
{
    auto it = metadata_.find(op_id);
    if (it == metadata_.end())
        return; // Unregistered helper op (e.g. a cool-down idle tail).
    const ops::Op &op = *it->second;

    // The draws below run in warm-up mode too (see setWarmup()): the
    // duration factor, then one gaussian per positive truth ratio.
    double duration_s = ticksToSeconds(end - start)
        * rng_.noiseFactor(noise_.duration_sigma);

    npu::PipelineRatios ratios;
    if (op.hw.category == npu::OpCategory::Compute) {
        npu::AicoreTimeline timeline(op.hw, chip_.memorySystem());
        npu::PipelineRatios truth = timeline.ratios(f_mhz_at_end);
        auto jitter = [this](double r) {
            if (r <= 0.0)
                return 0.0;
            return std::clamp(r + rng_.gaussian(0.0, noise_.ratio_sigma),
                              0.0, 1.0);
        };
        ratios.cube = jitter(truth.cube);
        ratios.vector = jitter(truth.vector);
        ratios.scalar = jitter(truth.scalar);
        ratios.mte1 = jitter(truth.mte1);
        ratios.mte2 = jitter(truth.mte2);
        ratios.mte3 = jitter(truth.mte3);
    }
    if (warmup_)
        return;

    OpRecord &record = records_.emplace_back();
    record.op_id = op_id;
    record.type = op.type;
    record.category = op.hw.category;
    record.start = start;
    record.end = end;
    record.f_mhz = f_mhz_at_end;
    record.duration_s = duration_s;
    record.ratios = ratios;
}

} // namespace opdvfs::trace
