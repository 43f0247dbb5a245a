#include "trace/workload_runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/statistics.h"
#include "ops/op_factory.h"
#include "sim/simulator.h"

namespace opdvfs::trace {

namespace {

/** Queue one iteration, attaching SetFreq triggers per Fig. 14. */
void
enqueueIteration(npu::NpuChip &chip, const models::Workload &workload,
                 const std::multimap<std::size_t, double> &triggers)
{
    for (std::size_t i = 0; i < workload.iteration.size(); ++i) {
        const ops::Op &op = workload.iteration[i];
        chip.enqueueOp(op.hw, op.id);

        auto range = triggers.equal_range(i);
        for (auto it = range.first; it != range.second; ++it) {
            auto event = std::make_shared<sim::SyncEvent>();
            chip.computeStream().enqueueRecord(event);
            chip.setFreqStream().enqueueWait(event);
            chip.enqueueSetFreq(it->second);
        }
    }
}

} // namespace

RunResult
WorkloadRunner::run(const models::Workload &workload,
                    const RunOptions &options,
                    const std::vector<SetFreqTrigger> &triggers) const
{
    if (workload.iteration.empty())
        throw std::invalid_argument("WorkloadRunner: empty workload");

    std::multimap<std::size_t, double> trigger_map;
    for (const auto &t : triggers) {
        if (t.after_op_index >= workload.iteration.size())
            throw std::invalid_argument(
                "WorkloadRunner: trigger index out of range");
        trigger_map.emplace(t.after_op_index, t.mhz);
    }

    sim::Simulator simulator;
    npu::NpuConfig chip_config = config_;
    chip_config.initial_mhz = options.initial_mhz;
    npu::NpuChip chip(simulator, chip_config);

    Profiler profiler(chip, options.profiler_noise, options.seed * 7919 + 1);
    profiler.registerSequence(workload.iteration);
    PowerSampler sampler(chip, options.sample_period, options.sampler_noise,
                         options.seed * 104729 + 2);

    // Warm-up repetitions until thermal steady state; nothing of them
    // is read, so the profiler keeps no records.
    profiler.setWarmup(true);
    while (ticksToSeconds(simulator.now()) < options.warmup_seconds) {
        enqueueIteration(chip, workload, trigger_map);
        simulator.run();
    }
    profiler.setWarmup(false);

    // Measured iteration.
    chip.resetEnergy();
    std::uint64_t set_freq_before = chip.dvfs().setFreqCount();
    sampler.start(/*stop_when_idle=*/true);
    enqueueIteration(chip, workload, trigger_map);
    simulator.run();
    chip.syncAccounting();

    RunResult result;
    result.set_freq_count = chip.dvfs().setFreqCount() - set_freq_before;
    result.records = profiler.records();
    // Read the snapshot taken when the last operator retired, so any
    // telemetry events trailing past the iteration don't dilute the
    // averages with idle time.
    const npu::EnergyCounters &energy = chip.energyAtLastRetire();
    result.aicore_energy_j = energy.aicore_joules;
    result.soc_energy_j = energy.soc_joules;
    result.aicore_avg_w = energy.aicoreAvgWatts();
    result.soc_avg_w = energy.socAvgWatts();

    if (!result.records.empty()) {
        Tick first = result.records.front().start;
        Tick last = 0;
        for (const auto &r : result.records)
            last = std::max(last, r.end);
        result.iteration_seconds = ticksToSeconds(last - first);
    }

    // Optional idle cool-down tail (for gamma calibration traces).
    if (options.cooldown_seconds > 0.0) {
        npu::HwOpParams tail;
        tail.category = npu::OpCategory::Idle;
        tail.fixed_seconds = options.cooldown_seconds;
        sampler.start(/*stop_when_idle=*/true);
        // Id outside the registered sequence: profiler ignores it.
        chip.enqueueOp(tail, workload.iteration.size() + 1'000'000'000ULL);
        simulator.run();
        chip.syncAccounting();
    }

    Tick iteration_end = 0;
    for (const auto &r : result.records)
        iteration_end = std::max(iteration_end, r.end);
    std::vector<double> temps;
    temps.reserve(sampler.samples().size());
    for (const auto &s : sampler.samples()) {
        if (s.tick <= iteration_end)
            temps.push_back(s.temperature_c);
    }
    if (temps.empty()) {
        for (const auto &s : sampler.samples())
            temps.push_back(s.temperature_c);
    }
    result.avg_temperature_c = stats::mean(temps);
    result.samples = sampler.samples();
    return result;
}

} // namespace opdvfs::trace
