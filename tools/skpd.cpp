// skpd — the prefetch service daemon: crash-tolerant, resumable, drainable.
//
// A single-process poll() event loop serving the netsim_des decision path
// over loopback TCP. Each client session is a daemon-hosted NetsimStepper
// (sim/netsim_stepper.hpp) behind the exactly-once replay discipline of
// SkpdSessionStore, so a client may crash, reconnect with its session
// token and replay from its last acked sequence number — and the decision
// path stays bit-identical to an uninterrupted run.
//
// Robustness machinery, all deadline-driven off one EventQueue (the DES
// timer core from sim/event_queue.hpp, here run against the wall clock):
//
//   keepalive   A peer is alive while it sends bytes or drains a backed-up
//               write queue. Peers idle for keepalive/2 get a PING; peers
//               still idle at the full keepalive deadline are evicted. The
//               SESSION survives eviction — only the connection dies.
//   linger      A session with no attached connection (client crashed, or
//               evicted) is reaped after --session-linger seconds.
//   backpressure  Per-connection write queues are bounded. Crossing the
//               soft limit forces the session's overload controller one
//               rung down (cheaper plans for a reader that cannot keep
//               up); crossing the hard limit evicts the connection
//               outright. Again: the session survives for resume.
//   drain       SIGTERM/SIGINT stops accepting, answers every request
//               already buffered, flushes write queues (bounded by a
//               deadline), writes the final per-session stats CSV, and
//               exits 0. The skpd_loopback driver requires exactly that
//               exit status from a spawned daemon.
//
// Startup banner: "SKPD_PORT=<n>" on stdout once the listener is bound
// (with --port=0 the kernel picks; the banner is how a parent learns the
// port). All logging goes to stderr.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/catalog.hpp"
#include "sim/event_queue.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/skpd_protocol.hpp"
#include "sim/skpd_session.hpp"
#include "util/csv.hpp"
#include "util/parse_digits.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

struct Options {
  int port = 0;                           // 0 = kernel-assigned
  double keepalive = 30.0;                // seconds of peer idleness
  double session_linger = 120.0;          // detached-session lifetime
  std::size_t write_queue_soft = 1u << 16;  // bytes: degrade rung
  std::size_t write_queue_hard = 1u << 18;  // bytes: evict connection
  double drain_timeout = 5.0;             // flush budget after SIGTERM
  int sndbuf = 0;                         // SO_SNDBUF cap (0 = kernel)
  std::string stats_csv;                  // final stats path ("" = skip)
  // Capacity hosting: create this many idle sessions at startup, all of
  // one spec group sharing a single SharedCatalog. They hold no
  // connection, so the linger reaper (which watches DETACHED sessions,
  // i.e. ones a client abandoned) never touches them — they sit resident
  // until drain, which is exactly the 100k-idle-session posture the
  // capacity work gates on.
  std::size_t preload_sessions = 0;
  std::string preload_spec;               // encoded spec file ("" = builtin)
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: skpd [--port=N] [--keepalive=SEC]\n"
               "            [--session-linger=SEC] [--write-queue-soft=BYTES]\n"
               "            [--write-queue-hard=BYTES] [--drain-timeout=SEC]\n"
               "            [--sndbuf=BYTES] [--stats-csv=PATH]\n"
               "            [--preload-sessions=N] [--preload-spec=FILE]\n"
               "\n"
               "Serves netsim_des sessions over loopback TCP (see\n"
               "src/sim/skpd_protocol.hpp for the wire contract). Prints\n"
               "SKPD_PORT=<n> on stdout once listening. SIGTERM/SIGINT\n"
               "drain gracefully and exit 0.\n");
}

bool parse_flag(const std::string& arg, const char* name,
                std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Integer flags: digits only (util/parse_digits.hpp), at most `max`, so
// "-1" cannot wrap and "4096abc" cannot pass as 4096.
template <typename T>
bool parse_count(const std::string& text, T* out,
                 std::uint64_t max = std::numeric_limits<T>::max()) {
  const std::optional<std::uint64_t> v = skp::parse_digits_u64(text);
  if (!v || *v > max) return false;
  *out = static_cast<T>(*v);
  return true;
}

// Durations in seconds: the whole text is one finite number.
bool parse_seconds(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (parse_flag(arg, "--port", &v)) {
      ok = parse_count(v, &opt.port, 65535);
    } else if (parse_flag(arg, "--keepalive", &v)) {
      ok = parse_seconds(v, &opt.keepalive);
    } else if (parse_flag(arg, "--session-linger", &v)) {
      ok = parse_seconds(v, &opt.session_linger);
    } else if (parse_flag(arg, "--write-queue-soft", &v)) {
      ok = parse_count(v, &opt.write_queue_soft);
    } else if (parse_flag(arg, "--write-queue-hard", &v)) {
      ok = parse_count(v, &opt.write_queue_hard);
    } else if (parse_flag(arg, "--drain-timeout", &v)) {
      ok = parse_seconds(v, &opt.drain_timeout);
    } else if (parse_flag(arg, "--sndbuf", &v)) {
      // Caps each connection's kernel send buffer so the userspace
      // write-queue limits (not kernel autotuning) govern when a slow
      // reader is detected. 0 keeps the kernel default.
      ok = parse_count(v, &opt.sndbuf);
    } else if (parse_flag(arg, "--stats-csv", &v)) {
      opt.stats_csv = v;
    } else if (parse_flag(arg, "--preload-sessions", &v)) {
      ok = parse_count(v, &opt.preload_sessions);
    } else if (parse_flag(arg, "--preload-spec", &v)) {
      opt.preload_spec = v;
    } else {
      std::fprintf(stderr, "skpd: unknown argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
    if (!ok) {
      std::fprintf(stderr, "skpd: bad value in '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (opt.keepalive <= 0.0 || opt.session_linger <= 0.0 ||
      opt.drain_timeout <= 0.0 || opt.write_queue_soft == 0 ||
      opt.write_queue_hard < opt.write_queue_soft) {
    std::fprintf(stderr,
                 "skpd: invalid flag values (need positive durations, "
                 "0 < soft <= hard write-queue limits)\n");
    return std::nullopt;
  }
  return opt;
}

struct Conn {
  int fd = -1;
  std::uint64_t token = 0;  // attached session, 0 before HELLO
  std::string rx;
  std::size_t rx_off = 0;
  std::string tx;
  std::size_t tx_off = 0;
  // Daemon-clock time of the last inbound byte, or of the last send
  // from a backed-up write queue. A peer draining a long queue has
  // nothing to say, and the PING that could prove it alive waits
  // behind that queue.
  double last_alive = 0.0;
  bool tx_blocked = false;  // a send hit EAGAIN since tx was last empty
  bool ping_outstanding = false;
  bool above_soft = false;     // edge detector for the degrade ladder
  bool closing = false;        // flush tx, then close
  std::size_t tx_pending() const noexcept { return tx.size() - tx_off; }
};

class Daemon {
 public:
  explicit Daemon(Options opt) : opt_(std::move(opt)) {}

  int run() {
    if (!preload_sessions()) return 1;
    if (!open_listener()) return 1;
    // The maintenance tick drives keepalive and linger deadlines; a
    // quarter of the keepalive interval bounds deadline overshoot.
    tick_ = std::min(opt_.keepalive, opt_.session_linger) / 4.0;
    if (tick_ < 0.01) tick_ = 0.01;
    timers_.schedule_in(tick_, [this] { maintenance(); });

    while (!(draining_ && conns_.empty())) {
      const double now = wall_now();
      timers_.run_until(now);
      if (g_stop && !draining_) begin_drain();
      if (draining_ && wall_now() >= drain_deadline_) {
        log("drain deadline passed with %zu connection(s) unflushed",
            conns_.size());
        break;
      }
      poll_once();
    }
    for (auto& [fd, conn] : conns_) ::close(conn.fd);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!write_stats_csv()) return 1;
    log("drained: %zu session(s) at exit", store_.size());
    return 0;
  }

 private:
  double wall_now() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(d).count();
  }

  void log(const char* fmt, ...) {
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "[skpd] ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  // The built-in preload spec: a small oracle netsim_des group, sized so
  // an idle session is a few KB (n=25 catalog, lazy plan caches) while
  // still exercising the full decision path if a client ever drove it.
  static skp::SimSpec default_preload_spec() {
    skp::SimSpec spec;
    spec.driver = skp::SimDriverKind::NetsimDes;
    spec.workload.kind = skp::SimWorkloadKind::Markov;
    spec.workload.n_items = 25;
    spec.workload.out_degree_lo = 5;
    spec.workload.out_degree_hi = 10;
    spec.cache_size = 5;
    spec.requests = 100;
    spec.seed = 42;
    return spec;
  }

  bool preload_sessions() {
    if (opt_.preload_sessions == 0) return true;
    skp::SimSpec spec;
    try {
      if (!opt_.preload_spec.empty()) {
        std::ifstream in(opt_.preload_spec);
        if (!in) {
          log("cannot read preload spec '%s'", opt_.preload_spec.c_str());
          return false;
        }
        std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
        spec = skp::decode_sim_spec(text);
      } else {
        spec = default_preload_spec();
      }
      // One catalog acquire for the whole batch: every preloaded session
      // references the same grounding (sizes, r, master chain).
      const std::shared_ptr<const skp::SharedCatalog> catalog =
          skp::SharedCatalog::acquire(spec);
      for (std::size_t i = 0; i < opt_.preload_sessions; ++i) {
        store_.create(spec, catalog);
      }
    } catch (const std::exception& e) {
      log("preload failed: %s", e.what());
      return false;
    }
    log("preloaded %zu idle session(s)", store_.size());
    return true;
  }

  bool open_listener() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      log("socket: %s", std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const int lflags = ::fcntl(listen_fd_, F_GETFL, 0);
    ::fcntl(listen_fd_, F_SETFL, lflags | O_NONBLOCK);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      log("bind/listen on 127.0.0.1:%d: %s", opt_.port,
          std::strerror(errno));
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    const int port = ntohs(bound.sin_port);
    log("listening on 127.0.0.1:%d (keepalive=%gs linger=%gs "
        "write-queue soft=%zu hard=%zu)",
        port, opt_.keepalive, opt_.session_linger, opt_.write_queue_soft,
        opt_.write_queue_hard);
    // The readiness banner: parents (SkpdDaemonProcess) block on this.
    std::printf("SKPD_PORT=%d\n", port);
    std::fflush(stdout);
    return true;
  }

  void poll_once() {
    std::vector<pollfd> pfds;
    pfds.reserve(conns_.size() + 1);
    if (!draining_) pfds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (!conn.closing) events |= POLLIN;
      if (conn.tx_pending() > 0) events |= POLLOUT;
      if (events == 0) {
        // Closing with nothing left to flush: close now, poll next round.
        continue;
      }
      pfds.push_back({fd, events, 0});
    }

    int timeout_ms = static_cast<int>(tick_ * 1000.0);
    if (!timers_.empty()) {
      const double until = timers_.next_when() - wall_now();
      timeout_ms = until <= 0.0 ? 0 : static_cast<int>(until * 1000.0) + 1;
    }
    if (draining_) timeout_ms = std::min(timeout_ms, 50);

    const int pr = ::poll(pfds.data(),
                          static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (pr < 0 && errno != EINTR) {
      log("poll: %s", std::strerror(errno));
      return;
    }

    for (const pollfd& p : pfds) {
      if (p.fd == listen_fd_ && !draining_) {
        if (p.revents & POLLIN) accept_new();
        continue;
      }
      // A handler earlier in this round may have evicted this fd.
      auto it = conns_.find(p.fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if (p.revents & (POLLERR | POLLNVAL)) {
        close_conn(p.fd, "socket error");
        continue;
      }
      if (p.revents & POLLIN) {
        if (!read_ready(conn)) continue;  // connection was closed
      }
      if (p.revents & (POLLOUT | POLLHUP)) flush_tx(conn);
      // flush_tx may have closed the connection: re-resolve before use.
      it = conns_.find(p.fd);
      if (it != conns_.end() && it->second.closing &&
          it->second.tx_pending() == 0) {
        close_conn(p.fd, nullptr);
      }
    }
    // Connections that finished flushing while not in pfds this round.
    std::vector<int> done;
    for (auto& [fd, conn] : conns_) {
      if (conn.closing && conn.tx_pending() == 0) done.push_back(fd);
    }
    for (int fd : done) close_conn(fd, nullptr);
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient failure: next poll round retries
      }
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (opt_.sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt_.sndbuf,
                     sizeof(opt_.sndbuf));
      }
      Conn conn;
      conn.fd = fd;
      conn.last_alive = wall_now();
      conns_.emplace(fd, std::move(conn));
    }
  }

  // Returns false when the connection was closed.
  bool read_ready(Conn& conn) {
    const int fd = conn.fd;
    for (;;) {
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.rx.append(buf, static_cast<std::size_t>(n));
        conn.last_alive = wall_now();
        conn.ping_outstanding = false;
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        close_conn(fd, "peer closed");
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(fd, std::strerror(errno));
      return false;
    }
    return drain_rx(conn);
  }

  // Parses and handles every complete frame buffered on `conn`. Returns
  // false when the connection was closed as a consequence.
  bool drain_rx(Conn& conn) {
    const int fd = conn.fd;
    for (;;) {
      std::optional<skp::SkpdFrame> frame;
      try {
        frame = skp::parse_skpd_frame(conn.rx, conn.rx_off);
      } catch (const std::exception& e) {
        // Unframeable garbage: the stream cannot be re-synchronized.
        protocol_error(conn, e.what());
        return conns_.count(fd) != 0;
      }
      if (!frame) break;
      try {
        handle_frame(conn, *frame);
      } catch (const std::exception& e) {
        // Any failure a frame provokes — a rejected request, or a spec
        // whose session cannot be built (bad_alloc, length_error) — is
        // answered on this connection only; the daemon and every other
        // session keep running.
        protocol_error(conn, e.what());
      }
      if (conns_.count(fd) == 0) return false;
      if (conn.closing) break;  // BYE or error: ignore trailing frames
    }
    if (conn.rx_off == conn.rx.size()) {
      conn.rx.clear();
      conn.rx_off = 0;
    }
    return true;
  }

  void handle_frame(Conn& conn, const skp::SkpdFrame& frame) {
    using skp::SkpdFrameType;
    switch (frame.type) {
      case SkpdFrameType::kHello:
        handle_hello(conn, skp::decode_hello(frame.payload));
        return;
      case SkpdFrameType::kStep: {
        skp::SkpdSession& session = require_session(conn);
        const skp::SkpdStep step = skp::decode_step(frame.payload);
        const skp::NetsimStepSnapshot snap =
            session.step(step.seq, step.ack);
        send_frame(conn, SkpdFrameType::kStepResult,
                   skp::encode_step_result(snap));
        return;
      }
      case SkpdFrameType::kPing:
        send_frame(conn, SkpdFrameType::kPong,
                   skp::encode_ping(skp::decode_ping(frame.payload)));
        return;
      case SkpdFrameType::kPong:
        skp::decode_ping(frame.payload);
        return;  // liveness already recorded by the read path
      case SkpdFrameType::kStats: {
        skp::SkpdSession& session = require_session(conn);
        if (!session.done()) {
          throw std::invalid_argument(
              "STATS before the run completed (" +
              std::to_string(session.executed()) + "/" +
              std::to_string(session.stepper().total()) + " cycles)");
        }
        send_frame(conn, SkpdFrameType::kStatsResult,
                   skp::encode_sim_result(session.stepper().result()));
        return;
      }
      case SkpdFrameType::kBye: {
        if (conn.token != 0) {
          log("session %llu retired (BYE)",
              static_cast<unsigned long long>(conn.token));
          attached_.erase(conn.token);
          detached_at_.erase(conn.token);
          store_.erase(conn.token);
          conn.token = 0;
        }
        conn.closing = true;
        return;
      }
      case SkpdFrameType::kWelcome:
      case SkpdFrameType::kStepResult:
      case SkpdFrameType::kStatsResult:
      case SkpdFrameType::kError:
        break;
    }
    throw std::invalid_argument(std::string("unexpected ") +
                                skp::to_string(frame.type) +
                                " frame from a client");
  }

  void handle_hello(Conn& conn, const skp::SkpdHello& hello) {
    if (hello.version != skp::kSkpdProtocolVersion) {
      throw std::invalid_argument(
          "unsupported protocol version " + std::to_string(hello.version) +
          " (daemon speaks " + std::to_string(skp::kSkpdProtocolVersion) +
          ")");
    }
    if (conn.token != 0) {
      throw std::invalid_argument("duplicate HELLO on an attached connection");
    }
    skp::SkpdWelcome welcome;
    if (hello.token == 0) {
      skp::SkpdSession& session = store_.create(hello.spec_text);
      attach(conn, session.token());
      welcome.token = session.token();
      welcome.executed = session.executed();
      welcome.resumed = false;
      log("session %llu created (%llu cycles)",
          static_cast<unsigned long long>(session.token()),
          static_cast<unsigned long long>(session.stepper().total()));
    } else {
      skp::SkpdSession* session = store_.find(hello.token);
      if (session == nullptr) {
        throw std::invalid_argument("unknown session token " +
                                    std::to_string(hello.token));
      }
      session->acknowledge(hello.last_ack);
      // Latest connection wins: a stale connection still attached (the
      // client crashed without a FIN we have seen yet) is evicted so the
      // resuming one owns the session.
      const auto prev = attached_.find(hello.token);
      if (prev != attached_.end() && prev->second != conn.fd) {
        close_conn(prev->second, "superseded by a resuming connection");
      }
      attach(conn, hello.token);
      welcome.token = hello.token;
      welcome.executed = session->executed();
      welcome.resumed = true;
      log("session %llu resumed at cycle %llu (ack %llu)",
          static_cast<unsigned long long>(hello.token),
          static_cast<unsigned long long>(session->executed()),
          static_cast<unsigned long long>(hello.last_ack));
    }
    send_frame(conn, skp::SkpdFrameType::kWelcome,
               skp::encode_welcome(welcome));
  }

  skp::SkpdSession& require_session(Conn& conn) {
    if (conn.token == 0) {
      throw std::invalid_argument("request before HELLO");
    }
    skp::SkpdSession* session = store_.find(conn.token);
    if (session == nullptr) {
      throw std::invalid_argument("session expired");
    }
    return *session;
  }

  void attach(Conn& conn, std::uint64_t token) {
    conn.token = token;
    attached_[token] = conn.fd;
    detached_at_.erase(token);
  }

  // Queues a frame and applies the backpressure ladder: soft limit forces
  // the session one overload rung down (degraded but correct service for
  // a slow reader), hard limit evicts the connection (session survives).
  void send_frame(Conn& conn, skp::SkpdFrameType type,
                  std::string_view payload) {
    const int fd = conn.fd;  // conn may dangle after any close below
    skp::append_skpd_frame(conn.tx, type, payload);
    flush_tx(conn);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& live = it->second;
    const std::size_t pending = live.tx_pending();
    if (pending > opt_.write_queue_hard) {
      close_conn(fd, "write queue overflow");
      return;
    }
    if (pending > opt_.write_queue_soft) {
      if (!live.above_soft && live.token != 0) {
        if (skp::SkpdSession* session = store_.find(live.token)) {
          if (session->stepper().force_degrade()) {
            log("session %llu degraded to rung %d (slow reader, %zu "
                "bytes queued)",
                static_cast<unsigned long long>(live.token),
                static_cast<int>(session->stepper().rung()), pending);
          }
        }
      }
      live.above_soft = true;
    }
  }

  void flush_tx(Conn& conn) {
    const int fd = conn.fd;
    while (conn.tx_off < conn.tx.size()) {
      const ssize_t n =
          ::send(fd, conn.tx.data() + conn.tx_off,
                 conn.tx.size() - conn.tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.tx_off += static_cast<std::size_t>(n);
        if (conn.tx_blocked) conn.last_alive = wall_now();  // peer reads
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        conn.tx_blocked = true;
        return;
      }
      close_conn(fd, "send failed");
      return;
    }
    conn.tx.clear();
    conn.tx_off = 0;
    conn.tx_blocked = false;
    conn.above_soft = false;  // re-arm the degrade ladder edge detector
  }

  // Sends an ERROR frame and schedules the connection for close-after-
  // flush. The session (if any) detaches but survives for resume.
  void protocol_error(Conn& conn, const std::string& message) {
    const int fd = conn.fd;  // conn may dangle if send_frame evicts it
    log("fd %d protocol error: %s", fd, message.c_str());
    send_frame(conn, skp::SkpdFrameType::kError, message);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    detach_only(it->second);
    it->second.closing = true;
  }

  void detach_only(Conn& conn) {
    if (conn.token == 0) return;
    const auto it = attached_.find(conn.token);
    if (it != attached_.end() && it->second == conn.fd) {
      attached_.erase(it);
      detached_at_[conn.token] = wall_now();
    }
    conn.token = 0;
  }

  void close_conn(int fd, const char* reason) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    if (reason != nullptr) log("fd %d closed: %s", fd, reason);
    detach_only(it->second);
    ::close(fd);
    conns_.erase(it);
  }

  void maintenance() {
    const double now = timers_.now();
    // Keepalive: ping the quiet, evict the silent. Collect first — the
    // actions mutate conns_.
    std::vector<int> to_ping, to_evict;
    for (auto& [fd, conn] : conns_) {
      if (conn.closing) continue;
      const double idle = now - conn.last_alive;
      if (idle >= opt_.keepalive) {
        to_evict.push_back(fd);
      } else if (idle >= opt_.keepalive / 2.0 && !conn.ping_outstanding) {
        to_ping.push_back(fd);
      }
    }
    for (int fd : to_evict) close_conn(fd, "keepalive expired");
    for (int fd : to_ping) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      it->second.ping_outstanding = true;
      send_frame(it->second, skp::SkpdFrameType::kPing,
                 skp::encode_ping(++ping_nonce_));
    }
    // Linger: reap sessions nobody has claimed for too long.
    std::vector<std::uint64_t> dead;
    for (const auto& [token, since] : detached_at_) {
      if (now - since >= opt_.session_linger) dead.push_back(token);
    }
    for (std::uint64_t token : dead) {
      log("session %llu reaped after %gs detached",
          static_cast<unsigned long long>(token), opt_.session_linger);
      detached_at_.erase(token);
      store_.erase(token);
    }
    timers_.schedule_in(tick_, [this] { maintenance(); });
  }

  void begin_drain() {
    draining_ = true;
    drain_deadline_ = wall_now() + opt_.drain_timeout;
    ::close(listen_fd_);
    listen_fd_ = -1;
    log("drain: listener closed, %zu connection(s), %zu session(s)",
        conns_.size(), store_.size());
    // Answer everything already buffered (the in-flight work), then mark
    // every connection close-after-flush.
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (!drain_rx(it->second)) continue;
      it->second.closing = true;
    }
  }

  // The final stats CSV: one row per surviving session, written on drain.
  // An empty table still gets its header — "daemon drained cleanly" must
  // be distinguishable from "daemon never got that far".
  bool write_stats_csv() {
    if (opt_.stats_csv.empty()) return true;
    std::ofstream os(opt_.stats_csv);
    if (!os) {
      log("cannot write stats csv '%s'", opt_.stats_csv.c_str());
      return false;
    }
    skp::CsvWriter csv(os);
    csv.row({"token", "executed", "total", "done", "requests", "hits",
             "demand_fetches", "prefetch_fetches", "solver_nodes", "plans",
             "deadline_hits", "rung"});
    store_.for_each([&](std::uint64_t token, skp::SkpdSession& session) {
      const skp::NetsimStepSnapshot snap = session.stepper().snapshot();
      csv.row_of(token, session.executed(), session.stepper().total(),
                 session.done() ? 1 : 0, snap.requests, snap.hits,
                 snap.demand_fetches, snap.prefetch_fetches,
                 snap.solver_nodes, snap.plans, snap.deadline_hits,
                 static_cast<int>(session.stepper().rung()));
    });
    os.flush();
    return os.good();
  }

  Options opt_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  int listen_fd_ = -1;
  double tick_ = 1.0;
  skp::EventQueue timers_;
  skp::SkpdSessionStore store_;
  std::map<int, Conn> conns_;
  std::map<std::uint64_t, int> attached_;       // token -> owning fd
  std::map<std::uint64_t, double> detached_at_;  // token -> detach time
  std::uint64_t ping_nonce_ = 0;
  bool draining_ = false;
  double drain_deadline_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) {
    usage(stderr);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, &on_stop_signal);
  std::signal(SIGINT, &on_stop_signal);
  Daemon daemon(*opt);
  return daemon.run();
}
