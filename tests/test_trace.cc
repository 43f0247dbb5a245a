#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>

#include "common/statistics.h"
#include "models/cnn.h"
#include "models/transformer.h"
#include "sim/simulator.h"
#include "trace/trace_export.h"
#include "trace/workload_runner.h"

namespace opdvfs::trace {
namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * The measurement protocol with a recording warm-up: every warm-up
 * operator gets a full record, and the records are cleared before the
 * measured iteration.  WorkloadRunner::run() must match it bit for
 * bit while keeping no warm-up records.
 */
RunResult
referenceRun(const npu::NpuConfig &config, const models::Workload &workload,
             const RunOptions &options,
             const std::vector<SetFreqTrigger> &triggers)
{
    std::multimap<std::size_t, double> trigger_map;
    for (const auto &t : triggers)
        trigger_map.emplace(t.after_op_index, t.mhz);
    auto enqueue = [&](npu::NpuChip &chip) {
        for (std::size_t i = 0; i < workload.iteration.size(); ++i) {
            const ops::Op &op = workload.iteration[i];
            chip.enqueueOp(op.hw, op.id);
            auto range = trigger_map.equal_range(i);
            for (auto it = range.first; it != range.second; ++it) {
                auto event = std::make_shared<sim::SyncEvent>();
                chip.computeStream().enqueueRecord(event);
                chip.setFreqStream().enqueueWait(event);
                chip.enqueueSetFreq(it->second);
            }
        }
    };

    sim::Simulator simulator;
    npu::NpuConfig chip_config = config;
    chip_config.initial_mhz = options.initial_mhz;
    npu::NpuChip chip(simulator, chip_config);
    Profiler profiler(chip, options.profiler_noise, options.seed * 7919 + 1);
    profiler.registerSequence(workload.iteration);
    PowerSampler sampler(chip, options.sample_period, options.sampler_noise,
                         options.seed * 104729 + 2);

    while (ticksToSeconds(simulator.now()) < options.warmup_seconds) {
        enqueue(chip);
        simulator.run();
    }
    // Several warm-up iterations were recorded, then thrown away.
    EXPECT_GE(profiler.records().size(), 2 * workload.iteration.size());
    profiler.clear();

    chip.resetEnergy();
    std::uint64_t set_freq_before = chip.dvfs().setFreqCount();
    sampler.start(/*stop_when_idle=*/true);
    enqueue(chip);
    simulator.run();
    chip.syncAccounting();

    RunResult result;
    result.set_freq_count = chip.dvfs().setFreqCount() - set_freq_before;
    result.records = profiler.records();
    const npu::EnergyCounters &energy = chip.energyAtLastRetire();
    result.aicore_energy_j = energy.aicore_joules;
    result.soc_energy_j = energy.soc_joules;
    result.aicore_avg_w = energy.aicoreAvgWatts();
    result.soc_avg_w = energy.socAvgWatts();
    Tick first = result.records.front().start;
    Tick last = 0;
    for (const auto &r : result.records)
        last = std::max(last, r.end);
    result.iteration_seconds = ticksToSeconds(last - first);
    std::vector<double> temps;
    for (const auto &sample : sampler.samples()) {
        if (sample.tick <= last)
            temps.push_back(sample.temperature_c);
    }
    if (temps.empty()) {
        for (const auto &sample : sampler.samples())
            temps.push_back(sample.temperature_c);
    }
    result.avg_temperature_c = stats::mean(temps);
    result.samples = sampler.samples();
    return result;
}

void
expectBitIdentical(const RunResult &got, const RunResult &want)
{
    EXPECT_EQ(bits(got.iteration_seconds), bits(want.iteration_seconds));
    EXPECT_EQ(bits(got.aicore_energy_j), bits(want.aicore_energy_j));
    EXPECT_EQ(bits(got.soc_energy_j), bits(want.soc_energy_j));
    EXPECT_EQ(bits(got.aicore_avg_w), bits(want.aicore_avg_w));
    EXPECT_EQ(bits(got.soc_avg_w), bits(want.soc_avg_w));
    EXPECT_EQ(bits(got.avg_temperature_c), bits(want.avg_temperature_c));
    EXPECT_EQ(got.set_freq_count, want.set_freq_count);

    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < got.records.size(); ++i) {
        const OpRecord &a = got.records[i];
        const OpRecord &b = want.records[i];
        ASSERT_EQ(a.op_id, b.op_id) << i;
        EXPECT_EQ(a.type, b.type) << i;
        EXPECT_EQ(a.category, b.category) << i;
        EXPECT_EQ(a.start, b.start) << i;
        EXPECT_EQ(a.end, b.end) << i;
        EXPECT_EQ(bits(a.duration_s), bits(b.duration_s)) << i;
        EXPECT_EQ(bits(a.f_mhz), bits(b.f_mhz)) << i;
        for (auto [x, y] : {std::pair{a.ratios.cube, b.ratios.cube},
                            std::pair{a.ratios.vector, b.ratios.vector},
                            std::pair{a.ratios.scalar, b.ratios.scalar},
                            std::pair{a.ratios.mte1, b.ratios.mte1},
                            std::pair{a.ratios.mte2, b.ratios.mte2},
                            std::pair{a.ratios.mte3, b.ratios.mte3}})
            EXPECT_EQ(bits(x), bits(y)) << i;
    }

    ASSERT_EQ(got.samples.size(), want.samples.size());
    for (std::size_t i = 0; i < got.samples.size(); ++i) {
        const PowerSample &a = got.samples[i];
        const PowerSample &b = want.samples[i];
        EXPECT_EQ(a.tick, b.tick) << i;
        EXPECT_EQ(bits(a.soc_watts), bits(b.soc_watts)) << i;
        EXPECT_EQ(bits(a.aicore_watts), bits(b.aicore_watts)) << i;
        EXPECT_EQ(bits(a.temperature_c), bits(b.temperature_c)) << i;
        EXPECT_EQ(bits(a.f_mhz), bits(b.f_mhz)) << i;
    }
}

class TraceTest : public ::testing::Test
{
  protected:
    TraceTest()
        : memory_(config_.memory)
    {
        models::TransformerConfig model;
        model.name = "tiny";
        model.layers = 2;
        model.hidden = 1024;
        model.heads = 8;
        model.seq = 256;
        model.batch = 4;
        workload_ = models::buildTransformerTraining(memory_, model, 5);
    }

    npu::NpuConfig config_;
    npu::MemorySystem memory_;
    models::Workload workload_;
};

TEST_F(TraceTest, ProfilerRecordsEveryOperatorOnce)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    RunResult result = runner.run(workload_, options);
    ASSERT_EQ(result.records.size(), workload_.opCount());
    // Records are time-ordered and contiguous on one stream.
    for (std::size_t i = 1; i < result.records.size(); ++i) {
        EXPECT_GE(result.records[i].start, result.records[i - 1].start);
        EXPECT_GE(result.records[i].end, result.records[i].start);
    }
}

TEST_F(TraceTest, MeasuredDurationsCloseToTrueDurations)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.profiler_noise.duration_sigma = 0.006;
    RunResult result = runner.run(workload_, options);
    for (const auto &record : result.records) {
        double true_s = ticksToSeconds(record.end - record.start);
        if (true_s < 1e-6)
            continue;
        EXPECT_NEAR(record.duration_s, true_s, true_s * 0.05);
    }
}

TEST_F(TraceTest, RatiosWithinUnitInterval)
{
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});
    for (const auto &record : result.records) {
        const auto &r = record.ratios;
        for (double v : {r.cube, r.vector, r.scalar, r.mte1, r.mte2, r.mte3}) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST_F(TraceTest, SamplerPeriodRespected)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.sample_period = 200 * kTicksPerUs;
    RunResult result = runner.run(workload_, options);
    ASSERT_GT(result.samples.size(), 5u);
    for (std::size_t i = 1; i < result.samples.size(); ++i) {
        EXPECT_EQ(result.samples[i].tick - result.samples[i - 1].tick,
                  200 * kTicksPerUs);
    }
}

TEST_F(TraceTest, SamplerReadsArePlausible)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.sample_period = kTicksPerMs;
    RunResult result = runner.run(workload_, options);
    for (const auto &s : result.samples) {
        EXPECT_GT(s.soc_watts, 50.0);
        EXPECT_LT(s.soc_watts, 600.0);
        EXPECT_GT(s.aicore_watts, 1.0);
        EXPECT_LT(s.aicore_watts, 200.0);
        EXPECT_GT(s.temperature_c, 15.0);
        EXPECT_LT(s.temperature_c, 120.0);
        // Quantised to the configured step.
        double steps = s.temperature_c / 0.5;
        EXPECT_NEAR(steps, std::round(steps), 1e-9);
        EXPECT_DOUBLE_EQ(s.f_mhz, 1800.0);
    }
}

TEST_F(TraceTest, WarmupRaisesTemperature)
{
    WorkloadRunner runner(config_);
    RunOptions cold, warm;
    warm.warmup_seconds = 20.0;
    RunResult cold_run = runner.run(workload_, cold);
    RunResult warm_run = runner.run(workload_, warm);
    EXPECT_GT(warm_run.avg_temperature_c, cold_run.avg_temperature_c + 3.0);
}

TEST_F(TraceTest, RecordFreeWarmupMatchesRecordingReference)
{
    models::Workload cnn = models::buildAlexnet(memory_, 3);
    WorkloadRunner runner(config_);
    for (const models::Workload *workload : {&workload_, &cnn}) {
        std::size_t ops = workload->opCount();
        std::vector<SetFreqTrigger> triggers = {{ops / 3, 1200.0},
                                                {2 * ops / 3, 1600.0}};
        for (double mhz : {1000.0, 1400.0, 1800.0}) {
            for (bool with_triggers : {false, true}) {
                SCOPED_TRACE(workload->name + " @ " + std::to_string(mhz)
                             + (with_triggers ? " with triggers" : ""));
                RunOptions options;
                options.initial_mhz = mhz;
                options.warmup_seconds = 0.3;
                options.sample_period = kTicksPerMs;
                options.seed = 11;
                const auto &applied =
                    with_triggers ? triggers : std::vector<SetFreqTrigger>{};
                expectBitIdentical(
                    runner.run(*workload, options, applied),
                    referenceRun(config_, *workload, options, applied));
            }
        }
    }
}

TEST_F(TraceTest, TriggersChangeFrequencyMidIteration)
{
    WorkloadRunner runner(config_);
    std::vector<SetFreqTrigger> triggers;
    triggers.push_back({workload_.opCount() / 2, 1200.0});

    RunOptions options;
    RunResult result = runner.run(workload_, options, triggers);
    EXPECT_EQ(result.set_freq_count, 1u);
    // Early ops retire at 1800, late ops at 1200.
    EXPECT_DOUBLE_EQ(result.records.front().f_mhz, 1800.0);
    EXPECT_DOUBLE_EQ(result.records.back().f_mhz, 1200.0);
}

TEST_F(TraceTest, DvfsRunUsesLessAicorePower)
{
    WorkloadRunner runner(config_);
    std::vector<SetFreqTrigger> triggers = {{0, 1000.0}};
    RunOptions options;
    RunResult high = runner.run(workload_, options);
    RunResult low = runner.run(workload_, options, triggers);
    EXPECT_LT(low.aicore_avg_w, high.aicore_avg_w);
    EXPECT_GT(low.iteration_seconds, high.iteration_seconds);
}

TEST_F(TraceTest, TriggerIndexValidation)
{
    WorkloadRunner runner(config_);
    std::vector<SetFreqTrigger> triggers = {{workload_.opCount(), 1200.0}};
    EXPECT_THROW(runner.run(workload_, RunOptions{}, triggers),
                 std::invalid_argument);
}

TEST_F(TraceTest, EmptyWorkloadThrows)
{
    WorkloadRunner runner(config_);
    models::Workload empty;
    EXPECT_THROW(runner.run(empty, RunOptions{}), std::invalid_argument);
}

TEST_F(TraceTest, CooldownExtendsSamples)
{
    WorkloadRunner runner(config_);
    RunOptions options;
    options.cooldown_seconds = 2.0;
    options.sample_period = 100 * kTicksPerMs;
    RunResult result = runner.run(workload_, options);
    Tick last_op_end = 0;
    for (const auto &r : result.records)
        last_op_end = std::max(last_op_end, r.end);
    EXPECT_GT(result.samples.back().tick, last_op_end);
}

TEST_F(TraceTest, CsvExportShapes)
{
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});

    std::ostringstream ops;
    exportOpRecordsCsv(result.records, ops);
    std::string text = ops.str();
    std::size_t lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, result.records.size() + 1); // header + rows
    EXPECT_NE(text.find("op_id,type,category"), std::string::npos);

    std::ostringstream samples;
    exportPowerSamplesCsv(result.samples, samples);
    std::string sample_text = samples.str();
    EXPECT_NE(sample_text.find("time_s,soc_watts"), std::string::npos);
}


TEST_F(TraceTest, CsvImportRoundTrips)
{
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});

    std::ostringstream os;
    exportOpRecordsCsv(result.records, os);
    std::istringstream is(os.str());
    std::vector<OpRecord> loaded = importOpRecordsCsv(is);

    ASSERT_EQ(loaded.size(), result.records.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        const OpRecord &a = result.records[i];
        const OpRecord &b = loaded[i];
        EXPECT_EQ(a.op_id, b.op_id);
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.category, b.category);
        EXPECT_NEAR(ticksToSeconds(a.start), ticksToSeconds(b.start), 1e-9);
        EXPECT_NEAR(ticksToSeconds(a.end), ticksToSeconds(b.end), 1e-9);
        EXPECT_NEAR(a.duration_s, b.duration_s, a.duration_s * 1e-6 + 1e-12);
        EXPECT_DOUBLE_EQ(a.f_mhz, b.f_mhz);
        EXPECT_NEAR(a.ratios.mte2, b.ratios.mte2, 1e-9);
    }
}

TEST_F(TraceTest, CsvImportValidation)
{
    std::istringstream bad_header("nope\n1,2,3\n");
    EXPECT_THROW(importOpRecordsCsv(bad_header), std::invalid_argument);

    std::istringstream short_row(
        "op_id,type,category,start_us,end_us,duration_us,f_mhz,"
        "cube,vector,scalar,mte1,mte2,mte3\n1,Add,Compute,0,1\n");
    EXPECT_THROW(importOpRecordsCsv(short_row), std::invalid_argument);

    std::istringstream bad_category(
        "op_id,type,category,start_us,end_us,duration_us,f_mhz,"
        "cube,vector,scalar,mte1,mte2,mte3\n"
        "1,Add,Weird,0,1,1,1800,0,0,0,0,0,0\n");
    EXPECT_THROW(importOpRecordsCsv(bad_category), std::invalid_argument);

    std::istringstream bad_number(
        "op_id,type,category,start_us,end_us,duration_us,f_mhz,"
        "cube,vector,scalar,mte1,mte2,mte3\n"
        "1,Add,Compute,x,1,1,1800,0,0,0,0,0,0\n");
    EXPECT_THROW(importOpRecordsCsv(bad_number), std::invalid_argument);
}

TEST_F(TraceTest, ImportedTraceDrivesPreprocessing)
{
    // The bring-your-own-trace path: records from CSV feed the DVFS
    // preprocessing stage directly.
    WorkloadRunner runner(config_);
    RunResult result = runner.run(workload_, RunOptions{});
    std::ostringstream os;
    exportOpRecordsCsv(result.records, os);
    std::istringstream is(os.str());
    std::vector<OpRecord> loaded = importOpRecordsCsv(is);
    EXPECT_EQ(loaded.size(), workload_.opCount());
}

} // namespace
} // namespace opdvfs::trace
