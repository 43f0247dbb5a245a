/**
 * @file
 * The traced replay: calls each layer's public functions on the
 * workload's own requests, the way the server calls them, and records
 * one span per call.  Spans are recorded here, in the benchmark, around
 * the calls; the library itself is not instrumented.
 */

#ifndef OPDVFS_PERFBENCH_REPLAY_H
#define OPDVFS_PERFBENCH_REPLAY_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/genetic.h"
#include "dvfs/pipeline.h"
#include "models/workload.h"
#include "net/wire.h"

namespace perfbench {

/** One timed call.  Spans of one request share `request`. */
struct Span
{
    std::uint64_t request = 0;
    std::string name;
    /** Index of the parent span in the recorder, -1 for a root. */
    long parent = -1;
    /** Seconds since the recorder was created. */
    double start = 0.0;
    double end = 0.0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Opens a span and returns its index. */
    long open(std::uint64_t request, std::string name, long parent);
    void close(long index);
    /** Adds an already-measured span (seconds since creation). */
    void add(std::uint64_t request, std::string name, long parent,
             double start, double end);
    double now() const;

    const std::vector<Span> &spans() const { return spans_; }
    /** Duration minus the part of it covered by child spans. */
    std::vector<double> selfTimes() const;
    /** One JSON object per line: request, name, parent, start, end,
     *  self (seconds). */
    void writeJsonLines(std::ostream &os) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** A request the server answered, as the replay needs it. */
struct ServedRequest
{
    std::uint64_t id = 0;
    opdvfs::models::Workload workload;
    /** The encoded request frame that was sent. */
    const std::string *frame = nullptr;
    double perf_loss_target = 0.02;
    std::uint64_t seed = 1;
    /** The decoded answer. */
    opdvfs::net::WireResponse response;
    /** Warm starts: the per-stage MHz of the donor the replay chose,
     *  empty for a cold search. */
    std::vector<double> donor_mhz;
};

/** Per-phase seconds of one replayed request. */
struct PhaseTimes
{
    double decode = 0.0;
    double fingerprint = 0.0;
    double profile = 0.0;
    std::vector<double> profile_calls;
    double fit = 0.0;
    double op_power = 0.0;
    double preprocess = 0.0;
    double search = 0.0;
    double search_serial = 0.0;
    double plan = 0.0;
    double measure = 0.0;
    double encode = 0.0;
    std::size_t stages = 0;
    std::uint64_t evaluations = 0;
    int converged_at = 0;
    int generations = 0;
    /** The replayed GaResult matches the served answer bit for bit,
     *  and the pool search matches the serial one. */
    bool identical = false;
};

/**
 * Replays @p served through every layer with @p options (the server's
 * pipeline options) and a @p workers-thread pool for the GA, recording
 * spans in @p spans.  Makes @p calls replays, cycling through @p served.
 */
std::vector<PhaseTimes> replayLayers(const std::vector<ServedRequest> &served,
                                     std::size_t calls,
                                     const opdvfs::dvfs::PipelineOptions &options,
                                     int warm_generations, std::size_t workers,
                                     SpanRecorder &spans);

/** Seconds per call of the request codec and the fingerprint. */
struct CodecTimes
{
    std::vector<double> decode;
    std::vector<double> fingerprint;
};

/**
 * Times net::decodeRequest and serve::fingerprintRequest on the decoded
 * request, @p calls times, cycling through @p frames (request id and
 * encoded request frame).
 */
CodecTimes replayCodec(
    const std::vector<std::pair<std::uint64_t, const std::string *>> &frames,
    std::size_t calls, SpanRecorder &spans);

} // namespace perfbench

#endif // OPDVFS_PERFBENCH_REPLAY_H
