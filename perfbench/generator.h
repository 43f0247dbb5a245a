/**
 * @file
 * Single-threaded loopback load generator over at most four
 * connections.
 *
 * Connection 0 carries the closed-loop stream: the next request goes
 * out only when the previous answer is in.  The other connections
 * carry an open-loop schedule: each request is written when due,
 * pipelined behind any still-unanswered ones, and timed from its due
 * time, so a stall shows up as latency on every request it delays.
 * Every request frame is encoded before the run starts; the
 * generator only copies bytes.
 */

#ifndef OPDVFS_PERFBENCH_GENERATOR_H
#define OPDVFS_PERFBENCH_GENERATOR_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** One open-loop request. */
struct OpenItem
{
    /** Seconds after the run starts at which the request is due. */
    double due = 0.0;
    /** The encoded request frame. */
    const std::string *frame = nullptr;
    /** The full response frame expected back, byte for byte. */
    const std::string *expect = nullptr;
};

/** What happened to one open-loop request. */
struct OpenOutcome
{
    /** Seconds from due time to the complete response; < 0 when no
     *  response arrived. */
    double latency = -1.0;
    /** Seconds the generator started writing it after its due time. */
    double lateness = 0.0;
    /** The response matched `expect` byte for byte. */
    bool ok = false;
};

/**
 * The closed-loop stream.  `next` returns the next frame to send
 * (nullptr ends the stream) given the seconds elapsed since the run
 * started; `done` receives the full response frame and the latency.
 */
struct ClosedStream
{
    std::function<const std::string *(double elapsed)> next;
    std::function<void(std::string_view response, double latency)> done;
};

struct RunReport
{
    std::vector<OpenOutcome> open;
    /** Open-loop requests sent; when a closed stream is given, the
     *  schedule stops with it and later items are never sent. */
    std::size_t open_sent = 0;
    /** Open-loop requests still unanswered at the last due time. */
    std::size_t backlog_at_last_due = 0;
    /** A connection failed or an answer never came. */
    bool transport_error = false;
};

class Generator
{
  public:
    /** Opens @p connections (1..4) loopback connections to @p port. */
    Generator(std::uint16_t port, std::size_t connections);
    ~Generator();

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    /**
     * Drive @p closed (may be null) on connection 0 and @p open over
     * connections 1..n-1 (round-robin; connection 0 too when it is the
     * only one and @p closed is null) until every request sent is
     * answered, or @p drain_seconds pass after the last send.  With
     * @p closed given, no open-loop request is sent after the closed
     * stream ends.
     */
    RunReport run(ClosedStream *closed, const std::vector<OpenItem> &open,
                  double drain_seconds = 20.0);

  private:
    struct Conn;
    std::vector<Conn> conns_;
};

} // namespace perfbench

#endif // OPDVFS_PERFBENCH_GENERATOR_H
