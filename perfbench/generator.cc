#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <time.h>

#include "net/wire.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Marks a closed-loop entry in a connection's in-order queue. */
constexpr std::size_t kClosed = static_cast<std::size_t>(-1);
/** Seconds a closed-loop request may stay unanswered. */
constexpr double kClosedTimeout = 120.0;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

int
connectLoopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("generator: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        ::close(fd);
        throw std::runtime_error("generator: connect() failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

} // namespace

struct Generator::Conn
{
    int fd = -1;
    /** Frames still (partly) unwritten: frame, bytes already sent. */
    std::deque<std::pair<const std::string *, std::size_t>> out;
    std::string in;
    std::size_t in_offset = 0;
    /** Requests written or queued, in order: open index or kClosed,
     *  with the instant the latency is measured from. */
    std::deque<std::pair<std::size_t, Clock::time_point>> pending;
};

Generator::Generator(std::uint16_t port, std::size_t connections)
{
    if (connections < 1 || connections > 4)
        throw std::invalid_argument("generator: 1..4 connections");
    conns_.resize(connections);
    for (Conn &conn : conns_)
        conn.fd = connectLoopback(port);
}

Generator::~Generator()
{
    for (Conn &conn : conns_)
        if (conn.fd >= 0)
            ::close(conn.fd);
}

RunReport
Generator::run(ClosedStream *closed, const std::vector<OpenItem> &open,
               double drain_seconds)
{
    RunReport report;
    report.open.resize(open.size());
    const std::size_t first_open =
        (conns_.size() == 1 && !closed) ? 0 : 1;
    const std::size_t open_conns = conns_.size() - first_open;
    if (!open.empty() && open_conns == 0)
        throw std::invalid_argument("generator: no open-loop connection");
    for (Conn &conn : conns_) {
        conn.out.clear();
        conn.pending.clear();
        conn.in.clear();
        conn.in_offset = 0;
    }

    const Clock::time_point start = Clock::now();
    std::size_t next_open = 0;
    std::size_t open_answered = 0;
    bool closed_active = closed != nullptr;
    double sending_done_at = -1.0;
    std::vector<char> chunk(1 << 18);
    std::vector<pollfd> fds(conns_.size());

    auto finished = [&] {
        return !closed_active
               && (closed ? open_answered == next_open
                          : open_answered == open.size());
    };

    while (!finished()) {
        Clock::time_point now = Clock::now();
        double elapsed = secondsBetween(start, now);

        // Enqueue every open-loop request that is due.
        const bool open_live = closed_active || !closed;
        while (open_live && next_open < open.size()
               && open[next_open].due <= elapsed) {
            Conn &conn =
                conns_[first_open + next_open % open_conns];
            Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                open[next_open].due));
            report.open[next_open].lateness = secondsBetween(due, now);
            conn.out.emplace_back(open[next_open].frame, 0);
            conn.pending.emplace_back(next_open, due);
            report.open_sent = ++next_open;
            if (next_open == open.size())
                report.backlog_at_last_due = next_open - open_answered;
        }
        // The closed loop sends its next request once the last is in.
        if (closed_active && conns_[0].pending.empty()) {
            const std::string *frame = closed->next(elapsed);
            if (!frame) {
                closed_active = false;
                continue;
            }
            conns_[0].out.emplace_back(frame, 0);
            conns_[0].pending.emplace_back(kClosed, Clock::now());
        }
        // Once nothing more will be sent, outstanding answers get
        // drain_seconds; a closed-loop answer gets kClosedTimeout.
        if (sending_done_at < 0.0 && !closed_active
            && (closed || next_open == open.size()))
            sending_done_at = elapsed;
        if ((sending_done_at >= 0.0
             && elapsed > sending_done_at + drain_seconds)
            || (closed_active && !conns_[0].pending.empty()
                && secondsBetween(conns_[0].pending.front().second, now)
                       > kClosedTimeout)) {
            report.transport_error = true;
            break;
        }

        for (std::size_t c = 0; c < conns_.size(); ++c) {
            fds[c].fd = conns_[c].fd;
            fds[c].events = static_cast<short>(
                POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
            fds[c].revents = 0;
        }
        double wait = 0.1;
        if (open_live && next_open < open.size())
            wait = std::min(wait, open[next_open].due - elapsed);
        wait = std::max(wait, 0.0);
        timespec timeout{};
        timeout.tv_sec = static_cast<time_t>(wait);
        timeout.tv_nsec =
            static_cast<long>((wait - static_cast<double>(timeout.tv_sec))
                              * 1e9);
        int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready < 0 && errno != EINTR) {
            report.transport_error = true;
            break;
        }
        if (ready <= 0)
            continue;

        for (std::size_t c = 0; c < conns_.size(); ++c) {
            Conn &conn = conns_[c];
            if (fds[c].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                report.transport_error = true;
                closed_active = false;
                break;
            }
            if (fds[c].revents & POLLOUT) {
                while (!conn.out.empty()) {
                    auto &[frame, sent] = conn.out.front();
                    ssize_t n = ::send(conn.fd, frame->data() + sent,
                                       frame->size() - sent,
                                       MSG_NOSIGNAL);
                    if (n < 0)
                        break; // EAGAIN: the kernel buffer is full
                    sent += static_cast<std::size_t>(n);
                    if (sent == frame->size())
                        conn.out.pop_front();
                }
            }
            if (!(fds[c].revents & POLLIN))
                continue;
            for (;;) {
                ssize_t n = ::recv(conn.fd, chunk.data(), chunk.size(), 0);
                if (n <= 0)
                    break;
                conn.in.append(chunk.data(), static_cast<std::size_t>(n));
            }
            Clock::time_point arrived = Clock::now();
            for (;;) {
                std::size_t consumed = 0;
                std::string_view buffer(conn.in);
                buffer.remove_prefix(conn.in_offset);
                std::optional<opdvfs::net::FrameView> frame;
                try {
                    frame = opdvfs::net::peelFrame(buffer, &consumed);
                } catch (const opdvfs::net::WireError &) {
                    report.transport_error = true;
                    return report;
                }
                if (!frame)
                    break;
                if (conn.pending.empty()) {
                    report.transport_error = true;
                    return report;
                }
                auto [index, since] = conn.pending.front();
                conn.pending.pop_front();
                std::string_view whole = buffer.substr(0, consumed);
                double latency = secondsBetween(since, arrived);
                if (index == kClosed) {
                    closed->done(whole, latency);
                } else {
                    OpenOutcome &outcome = report.open[index];
                    outcome.latency = latency;
                    outcome.ok = whole == *open[index].expect;
                    ++open_answered;
                }
                conn.in_offset += consumed;
            }
            if (conn.in_offset > (1u << 20) || conn.in_offset == conn.in.size()) {
                conn.in.erase(0, conn.in_offset);
                conn.in_offset = 0;
            }
        }
        if (report.transport_error)
            break;
    }
    return report;
}

} // namespace perfbench
