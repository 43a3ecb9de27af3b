// The skpd layer probe of the learned_des traced run: one skpd daemon
// driven over loopback by a single-threaded generator in this process,
// over at most nproc (max 4) connections. It was meant as a workload of
// its own (skpd_open_loop), but its end-to-end numbers moved by up to
// 24% between identical runs on the shared reference host, more than any
// bound a benchmark may set, so its numbers are per-layer only.
//
// Each connection runs oracle netsim_des sessions of a few hundred steps
// back to back (HELLO -> STEPs -> STATS -> BYE -> reconnect), drawn from
// a small seeds x cache-sizes grid. Short sessions keep every plan memo
// cold, so the memo's fill path runs here while fig7_oracle runs its hit
// path, and session turnover puts HELLO (spec decode, catalog interning,
// stepper construction) beside STEP. It is bound by the wire, the poll
// loop and session set-up.
//
// Phases: an unpipelined round trip on an idle daemon, then cycles of a
// closed loop with a fixed window of outstanding steps per connection
// (saturation throughput) and open loops on a fixed schedule at a light
// and a heavy rate, with a rate ladder in the middle. Open-loop latency
// is timed from each step's scheduled send time, so a stall counts
// against every step it delays. Generator and daemon share one CPU,
// rotated between segments (see CpuRotation).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "sim/netsim_stepper.hpp"
#include "sim/skpd_loopback.hpp"
#include "sim/skpd_protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace skp;

constexpr std::size_t kSessionSteps = 300;
constexpr std::size_t kSessionSeeds = 4;
constexpr std::size_t kSessionCacheSizes[] = {5, 10, 20};
constexpr std::size_t kMaxConnections = 4;
constexpr std::size_t kClosedLoopWindow = 8;
// Fixed offered loads (steps/s). On one core of the 4-vCPU reference
// host the open loop saturates between 30k and 40k steps/s: light is ~1/4
// of that and heavy ~1/2. At 3/4 the p90 of identical runs ranged over
// 4x. Fixed, so a faster daemon shows up as lower latency at the same
// load. The ladder crosses the knee.
constexpr double kLightRate = 10'000.0;
constexpr double kHeavyRate = 20'000.0;
constexpr double kLadderRates[] = {10'000.0, 20'000.0, 30'000.0,
                                   40'000.0, 50'000.0};
// A ladder rung meets the objective when its p99 stays under this.
constexpr double kSloP99Us = 1'000.0;
// Closed-loop throughput and open-loop latency percentiles are taken per
// window of this length and medianed over windows, so a stall of the
// shared host (a minority of windows) does not move them.
constexpr double kRateWindowS = 0.02;
// A step unanswered this long after its scheduled time has failed.
constexpr double kReplyDeadlineS = 2.0;

// Phase plan as shares of --seconds, after a round-trip phase: six
// closed/light/heavy cycles with the ladder in the middle. Each kind runs
// in short segments spread over the run, so a stall of the shared host
// moves a share of one kind's samples, not all of them.
enum class Phase { kClosed, kLight, kHeavy, kLadder };
constexpr double kRoundTripShare = 0.04;
constexpr double kClosedShare = 0.035;
constexpr double kLightShare = 0.035;
constexpr double kHeavyShare = 0.04;
constexpr double kLadderShare = 0.30;
constexpr int kCycles = 6;

struct SessionRef {
  SimSpec spec;
  std::string spec_text;
  std::vector<NetsimStepSnapshot> steps;
  std::string stats;  // encode_sim_result of the in-process run
};

// The in-process reference: NetsimStepper over each session spec. Also
// the sim.stepper.step_ns measurement.
std::vector<SessionRef> make_references(std::uint64_t seed,
                                        double& step_ns) {
  std::vector<SessionRef> refs;
  double total_ns = 0.0;
  std::size_t steps = 0;
  for (std::size_t s = 0; s < kSessionSeeds; ++s) {
    for (const std::size_t cache_size : kSessionCacheSizes) {
      SessionRef ref;
      ref.spec.driver = SimDriverKind::NetsimDes;
      ref.spec.requests = kSessionSteps;
      ref.spec.cache_size = cache_size;
      ref.spec.seed = derive_seed(seed, 300 + s);
      ref.spec_text = encode_sim_spec(ref.spec);
      NetsimStepper stepper(ref.spec);
      while (!stepper.done()) {
        const std::int64_t t0 = now_ns();
        ref.steps.push_back(stepper.step());
        total_ns += static_cast<double>(now_ns() - t0);
        ++steps;
      }
      ref.stats = encode_sim_result(stepper.result());
      refs.push_back(std::move(ref));
    }
  }
  step_ns = total_ns / static_cast<double>(steps);
  return refs;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Spawns the daemon with its stderr sent to `log_path` (drained by the
// file system, never able to block the daemon).
std::unique_ptr<SkpdDaemonProcess> spawn_daemon(const std::string& bin,
                                                const std::string& log_path) {
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  const int saved = ::dup(STDERR_FILENO);
  ::dup2(log_fd, STDERR_FILENO);
  ::close(log_fd);
  std::unique_ptr<SkpdDaemonProcess> daemon;
  try {
    daemon = std::make_unique<SkpdDaemonProcess>(bin);
  } catch (...) {
    ::dup2(saved, STDERR_FILENO);
    ::close(saved);
    throw;
  }
  ::dup2(saved, STDERR_FILENO);
  ::close(saved);
  return daemon;
}

struct PhaseStats {
  std::vector<double> latency_us;  // scheduled (or sent) -> result
  std::vector<std::int64_t> scheduled_at;  // aligned with latency_us
  std::vector<double> lag_us;      // how late the generator noticed a slot
  std::vector<double> window_rates;  // completions/s per kRateWindowS
  // Per kRateWindowS window of scheduled send times: p50 and p90 of the
  // steps due in it (windows with fewer than 100 steps are skipped).
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::size_t inflight_max = 0;
  std::size_t backlog_end = 0;     // due-but-unsent slots at phase end
  double wall_s = 0.0;
  double daemon_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
};

// Folds one phase run into the totals of its kind.
void absorb(PhaseStats& into, PhaseStats&& from) {
  auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.latency_us, from.latency_us);
  into.scheduled_at.insert(into.scheduled_at.end(), from.scheduled_at.begin(),
                           from.scheduled_at.end());
  append(into.lag_us, from.lag_us);
  append(into.window_rates, from.window_rates);
  append(into.window_p50_us, from.window_p50_us);
  append(into.window_p90_us, from.window_p90_us);
  into.scheduled += from.scheduled;
  into.completed += from.completed;
  into.inflight_max = std::max(into.inflight_max, from.inflight_max);
  into.backlog_end = std::max(into.backlog_end, from.backlog_end);
  into.wall_s += from.wall_s;
  into.daemon_cpu_s += from.daemon_cpu_s;
  into.generator_cpu_s += from.generator_cpu_s;
}

enum class Mode { kClosed, kOpen };

class LoadGenerator {
 public:
  LoadGenerator(int port, const std::vector<SessionRef>& refs,
                std::size_t connections, bool perturb)
      : port_(port), refs_(refs), perturb_(perturb),
        conns_(connections) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }
  ~LoadGenerator() {
    for (Conn& c : conns_) close_conn(c);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Opens every connection's first session and waits for each WELCOME.
  void open_all() {
    for (Conn& c : conns_) open_session(c);
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (now_ns() < deadline) {
      bool all = true;
      for (const Conn& c : conns_) all = all && c.state == State::kActive;
      if (all) return;
      pump(1'000'000);
    }
    throw std::runtime_error("skpd did not welcome every connection");
  }

  // Runs one phase on the first `use` connections. Closed: `load` steps
  // outstanding per connection. Open: `load` steps/s on a fixed
  // schedule.
  PhaseStats run(Mode mode, double load, double seconds, std::size_t use,
                 int daemon_pid) {
    PhaseStats st;
    stats_ = &st;
    use_ = std::min(use, conns_.size());
    const double cpu0 = process_cpu_s(daemon_pid);
    const double gen0 = thread_cpu_s();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const double period_ns = mode == Mode::kOpen ? 1e9 / load : 0.0;
    double next_due = static_cast<double>(start);
    std::deque<std::int64_t> pending;  // scheduled times not yet sent
    bool window_closed = false;
    std::int64_t rate_window = start;
    std::uint64_t rate_base = 0;
    for (;;) {
      const std::int64_t now = now_ns();
      const bool open_window = now < end;
      if (open_window && now - rate_window >= kRateWindowS * 1e9) {
        st.window_rates.push_back(
            static_cast<double>(st.completed - rate_base) /
            (static_cast<double>(now - rate_window) * 1e-9));
        rate_window = now;
        rate_base = st.completed;
      }
      if (mode == Mode::kOpen) {
        while (open_window && next_due <= static_cast<double>(now)) {
          const auto due = static_cast<std::int64_t>(next_due);
          pending.push_back(due);
          st.lag_us.push_back(static_cast<double>(now - due) * 1e-3);
          ++st.scheduled;
          next_due += period_ns;
        }
        dispatch_open(pending);
      } else if (open_window) {
        dispatch_closed(static_cast<std::size_t>(load), st);
      }
      if (!open_window && !window_closed) {
        st.backlog_end = pending.size();
        window_closed = true;
      }
      const std::size_t inflight = outstanding();
      st.inflight_max = std::max(st.inflight_max, inflight);
      if (!open_window && pending.empty() && inflight == 0) break;
      if (!open_window &&
          now > end + static_cast<std::int64_t>(kReplyDeadlineS * 1e9)) {
        expire(pending);
        break;
      }
      std::int64_t wait_ns = 1'000'000;
      if (mode == Mode::kOpen && open_window) {
        wait_ns = static_cast<std::int64_t>(next_due) - now_ns();
      }
      pump(wait_ns);
    }
    window_latencies(st, start);
    st.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    st.daemon_cpu_s = process_cpu_s(daemon_pid) - cpu0;
    st.generator_cpu_s = thread_cpu_s() - gen0;
    stats_ = nullptr;
    return st;
  }

  static void window_latencies(PhaseStats& st, std::int64_t start) {
    const auto width = static_cast<std::int64_t>(kRateWindowS * 1e9);
    std::vector<std::vector<double>> windows;
    for (std::size_t i = 0; i < st.latency_us.size(); ++i) {
      const auto w =
          static_cast<std::size_t>((st.scheduled_at[i] - start) / width);
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(st.latency_us[i]);
    }
    for (const std::vector<double>& w : windows) {
      if (w.size() < 100) continue;
      st.window_p50_us.push_back(quantile(w, 0.5));
      st.window_p90_us.push_back(quantile(w, 0.9));
    }
  }

  // Idle round trips on one connection: one step in flight at a time.
  std::vector<double> round_trips(double seconds, int daemon_pid) {
    return run(Mode::kClosed, 1, seconds, 1, daemon_pid).latency_us;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<double>& hello_us() const noexcept { return hello_us_; }
  const PlanMemoStats& memo() const noexcept { return memo_; }
  std::uint64_t forced_degrades() const noexcept { return forced_; }
  std::uint64_t solver_nodes() const noexcept { return solver_nodes_; }
  std::uint64_t session_requests() const noexcept { return requests_; }
  double encode_ns() const { return encode_ns_ / std::max(1.0, encodes_); }
  double decode_ns() const { return decode_ns_ / std::max(1.0, decodes_); }

 private:
  enum class State { kClosed, kHello, kActive, kStats };

  struct Outstanding {
    std::uint64_t seq;
    std::int64_t scheduled;
    PhaseStats* phase;
  };

  struct Conn {
    int fd = -1;
    State state = State::kClosed;
    std::size_t ref = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t last_ack = 0;
    std::uint64_t sent = 0;
    bool bad = false;
    std::int64_t hello_sent = 0;
    std::deque<Outstanding> outstanding;
    std::string rx;
    std::size_t rx_off = 0;
    std::string tx;
  };

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.outstanding.size();
    return n;
  }

  bool can_send(const Conn& c) const {
    return c.state == State::kActive && c.next_seq <= kSessionSteps;
  }

  void open_session(Conn& c) {
    c = Conn{};
    c.fd = connect_loopback(port_);
    c.ref = next_ref_++ % refs_.size();
    SkpdHello hello;
    hello.spec_text = refs_[c.ref].spec_text;
    append_skpd_frame(c.tx, SkpdFrameType::kHello, encode_hello(hello));
    c.state = State::kHello;
    c.hello_sent = now_ns();
    flush(c);
  }

  void close_conn(Conn& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.state = State::kClosed;
  }

  // Ends a session that went wrong: every step it was to run fails.
  void fail_session(Conn& c, const char* why) {
    if (!c.bad) {
      failed_ += kSessionSteps;
      std::fprintf(stderr, "perfbench: skpd session failed: %s\n", why);
    }
    attempted_ += kSessionSteps - c.sent;  // never sent, still lost
    c.outstanding.clear();
    close_conn(c);
    open_session(c);
  }

  void send_step(Conn& c, std::int64_t scheduled) {
    SkpdStep step;
    step.seq = c.next_seq++;
    step.ack = c.last_ack;
    const std::int64_t t0 = now_ns();
    append_skpd_frame(c.tx, SkpdFrameType::kStep, encode_step(step));
    encode_ns_ += static_cast<double>(now_ns() - t0);
    encodes_ += 1.0;
    c.outstanding.push_back({step.seq, scheduled, stats_});
    ++c.sent;
    ++attempted_;
  }

  void dispatch_closed(std::size_t window, PhaseStats& st) {
    for (std::size_t i = 0; i < use_; ++i) {
      Conn& c = conns_[i];
      bool any = false;
      while (can_send(c) && c.outstanding.size() < window) {
        send_step(c, now_ns());
        ++st.scheduled;
        any = true;
      }
      if (any) flush(c);
    }
  }

  // Hands due slots to ready connections, round robin; a slot waits in
  // `pending` (its latency still running) while none is ready.
  void dispatch_open(std::deque<std::int64_t>& pending) {
    std::size_t tried = 0;
    while (!pending.empty() && tried < use_) {
      Conn& c = conns_[rr_++ % use_];
      if (!can_send(c)) {
        ++tried;
        continue;
      }
      tried = 0;
      send_step(c, pending.front());
      pending.pop_front();
      flush(c);
    }
  }

  // Phase over and the reply deadline passed: whatever is left failed.
  void expire(std::deque<std::int64_t>& pending) {
    failed_ += pending.size();
    attempted_ += pending.size();
    pending.clear();
    for (std::size_t i = 0; i < use_; ++i) {
      if (!conns_[i].outstanding.empty()) {
        fail_session(conns_[i], "reply deadline passed");
      }
    }
  }

  void flush(Conn& c) {
    while (c.fd >= 0 && !c.tx.empty()) {
      const ssize_t n = ::send(c.fd, c.tx.data(), c.tx.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.tx.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail_session(c, "send failed");
      return;
    }
  }

  // Waits up to `timeout_ns` for socket events and handles them. The
  // thread's timer slack is 1 ns (set in the constructor), so a sleep
  // ends close to the next scheduled send; only waits under 20 us spin.
  void pump(std::int64_t timeout_ns) {
    pollfd pfds[kMaxConnections];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns_[i].tx.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{};
    if (timeout_ns > 20'000) {
      ts.tv_sec = timeout_ns / 1'000'000'000;
      ts.tv_nsec = timeout_ns % 1'000'000'000;
    }
    const int n = ::ppoll(pfds, conns_.size(), &ts, nullptr);
    if (n <= 0) return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (pfds[i].revents & POLLOUT) flush(c);
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) read(c);
    }
  }

  void read(Conn& c) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.rx.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail_session(c, "connection lost");
      return;
    }
    for (;;) {
      std::optional<SkpdFrame> frame;
      const std::int64_t t0 = now_ns();
      try {
        frame = parse_skpd_frame(c.rx, c.rx_off);
      } catch (const std::invalid_argument&) {
        fail_session(c, "unframeable reply");
        return;
      }
      if (!frame) break;
      if (!handle(c, *frame, t0)) return;  // connection replaced
    }
    if (c.rx_off == c.rx.size()) {
      c.rx.clear();
      c.rx_off = 0;
    }
  }

  // Returns false when the connection was closed or replaced.
  bool handle(Conn& c, const SkpdFrame& frame, std::int64_t t0) {
    switch (frame.type) {
      case SkpdFrameType::kWelcome:
        decode_welcome(frame.payload);
        hello_us_.push_back(static_cast<double>(now_ns() - c.hello_sent) *
                            1e-3);
        c.state = State::kActive;
        return true;
      case SkpdFrameType::kStepResult: {
        const NetsimStepSnapshot snap = decode_step_result(frame.payload);
        const std::int64_t now = now_ns();
        decode_ns_ += static_cast<double>(now - t0);
        decodes_ += 1.0;
        if (c.outstanding.empty() || c.outstanding.front().seq != snap.seq) {
          fail_session(c, "STEP_RESULT out of order");
          return false;
        }
        const Outstanding o = c.outstanding.front();
        c.outstanding.pop_front();
        if (o.phase != nullptr) {
          o.phase->latency_us.push_back(
              static_cast<double>(now - o.scheduled) * 1e-3);
          o.phase->scheduled_at.push_back(o.scheduled);
          ++o.phase->completed;
        }
        c.last_ack = snap.seq;
        if (!c.bad && !(snap == refs_[c.ref].steps[snap.seq - 1])) {
          c.bad = true;
          failed_ += kSessionSteps;
          std::fprintf(stderr, "perfbench: STEP_RESULT %llu differs from "
                       "the in-process stepper\n",
                       static_cast<unsigned long long>(snap.seq));
        }
        if (snap.seq == kSessionSteps) {
          append_skpd_frame(c.tx, SkpdFrameType::kStats, "");
          c.state = State::kStats;
          flush(c);
        }
        return c.fd >= 0;
      }
      case SkpdFrameType::kStatsResult: {
        std::string expected = refs_[c.ref].stats;
        if (perturb_ && sessions_done_ == 0) expected += "perturbed";
        if (std::string(frame.payload) != expected && !c.bad) {
          failed_ += kSessionSteps;
          std::fprintf(stderr, "perfbench: STATS_RESULT differs from "
                       "in-process run_sim\n");
        }
        const SimResult r = decode_sim_result(frame.payload);
        memo_.merge(r.plan_cache);
        forced_ += r.overload.forced_transitions;
        solver_nodes_ += r.metrics.solver_nodes;
        requests_ += r.metrics.requests;
        ++sessions_done_;
        append_skpd_frame(c.tx, SkpdFrameType::kBye, "");
        flush(c);
        close_conn(c);
        open_session(c);
        return false;
      }
      case SkpdFrameType::kPing:
        append_skpd_frame(c.tx, SkpdFrameType::kPong,
                          encode_ping(decode_ping(frame.payload)));
        flush(c);
        return c.fd >= 0;
      case SkpdFrameType::kError:
        fail_session(c, "ERROR frame");
        return false;
      default:
        fail_session(c, "unexpected frame");
        return false;
    }
  }

  int port_;
  const std::vector<SessionRef>& refs_;
  bool perturb_;
  std::vector<Conn> conns_;
  std::size_t use_ = 0;
  std::size_t rr_ = 0;
  std::size_t next_ref_ = 0;
  PhaseStats* stats_ = nullptr;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t sessions_done_ = 0;
  std::vector<double> hello_us_;
  PlanMemoStats memo_;
  std::uint64_t forced_ = 0;
  std::uint64_t solver_nodes_ = 0;
  std::uint64_t requests_ = 0;
  double encode_ns_ = 0.0, encodes_ = 0.0;
  double decode_ns_ = 0.0, decodes_ = 0.0;
};

// Drains the daemon with SIGTERM; a non-zero exit fails the run.
void drain(SkpdDaemonProcess& daemon, Report& report) {
  const int status = daemon.terminate();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.fail_check("skpd did not drain cleanly (wait status " +
                      std::to_string(status) + ")");
  }
}

}  // namespace

void measure_skpd(const Options& opt, double seconds, Report& report) {
  if (opt.skpd_bin.empty()) throw std::runtime_error("--skpd-bin is required");
  const std::string log_path =
      (opt.out_dir.empty() ? std::string(".") : opt.out_dir) + "/skpd-seed" +
      std::to_string(opt.seed) + ".stderr.log";
  const std::size_t connections = std::min<std::size_t>(
      kMaxConnections,
      std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN)));

  double step_ns = 0.0;
  const std::vector<SessionRef> refs = make_references(opt.seed, step_ns);
  CpuRotation cpu;
  cpu.next(0);  // the daemon inherits the generator's CPU

  // Set-up: daemon spawn to its port banner, plus the first HELLO ->
  // WELCOME on every connection.
  const auto t_setup = Clock::now();
  std::unique_ptr<SkpdDaemonProcess> daemon =
      spawn_daemon(opt.skpd_bin, log_path);
  auto gen = std::make_unique<LoadGenerator>(daemon->port(), refs,
                                             connections, opt.perturb);
  gen->open_all();
  const double setup_s = seconds_since(t_setup);
  const int pid = daemon->pid();

  cpu.next(pid);
  const std::vector<double> rtt =
      gen->round_trips(kRoundTripShare * seconds, pid);
  PhaseStats closed, light, heavy, open_loops;
  double slo_rate = 0.0;
  std::vector<std::pair<Phase, double>> schedule;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (cycle == kCycles / 2) {
      schedule.emplace_back(Phase::kLadder, kLadderShare);
    }
    schedule.emplace_back(Phase::kClosed, kClosedShare);
    schedule.emplace_back(Phase::kLight, kLightShare);
    schedule.emplace_back(Phase::kHeavy, kHeavyShare);
  }
  for (const auto& [phase, share] : schedule) {
    cpu.next(pid);
    const double span = share * seconds;
    switch (phase) {
      case Phase::kClosed:
        absorb(closed, gen->run(Mode::kClosed, kClosedLoopWindow, span,
                                connections, pid));
        break;
      case Phase::kLight:
        absorb(light,
               gen->run(Mode::kOpen, kLightRate, span, connections, pid));
        break;
      case Phase::kHeavy:
        absorb(heavy,
               gen->run(Mode::kOpen, kHeavyRate, span, connections, pid));
        break;
      case Phase::kLadder:
        for (const double rate : kLadderRates) {
          cpu.next(pid);
          PhaseStats rung =
              gen->run(Mode::kOpen, rate, span / std::size(kLadderRates),
                       connections, pid);
          // Backlog must not grow: what was due but unsent at the end of
          // the rung stays under 10 ms worth of slots.
          if (rung.completed == rung.scheduled &&
              quantile(rung.latency_us, 0.99) < kSloP99Us &&
              static_cast<double>(rung.backlog_end) < rate * 0.01) {
            slo_rate = static_cast<double>(rung.completed) / rung.wall_s;
          }
          absorb(open_loops, std::move(rung));
        }
        break;
    }
  }
  absorb(open_loops, PhaseStats(light));
  absorb(open_loops, PhaseStats(heavy));
  const double daemon_rss = peak_rss_mb(pid);
  report.attempted += gen->attempted();
  report.failed += gen->failed();
  const LoadGenerator& g = *gen;
  const PlanMemoStats memo = g.memo();
  report.set("sim.stepper.step_ns", step_ns, "ns");
  report.set("sim.protocol.encode_ns", g.encode_ns(), "ns");
  report.set("sim.protocol.decode_ns", g.decode_ns(), "ns");
  report.set("tools.skpd.setup_s", setup_s, "s");
  report.set("tools.skpd.peak_rss_mb", daemon_rss, "MB");
  report.set("tools.skpd.steps_per_s", median(closed.window_rates),
             "steps/s");
  report.set("tools.skpd.heavy_p50_us", median(heavy.window_p50_us), "us");
  report.set("tools.skpd.heavy_p90_us", median(heavy.window_p90_us), "us");
  report.set("tools.skpd.light_p50_us", quantile(light.latency_us, 0.5),
             "us");
  report.set("tools.skpd.light_p99_us", quantile(light.latency_us, 0.99),
             "us");
  report.set("tools.skpd.slo_steps_per_s", slo_rate, "steps/s");
  report.set("tools.skpd.cpu_us_per_step",
             closed.daemon_cpu_s * 1e6 / static_cast<double>(closed.completed),
             "us");
  report.set("tools.skpd.busy_frac", heavy.daemon_cpu_s / heavy.wall_s,
             "ratio");
  report.set("tools.skpd.hello_us", median(g.hello_us()), "us");
  report.set("tools.skpd.rtt_us", median(rtt), "us");
  report.set("tools.skpd.inflight_max",
             static_cast<double>(heavy.inflight_max), "count");
  report.set("tools.skpd.forced_degrades",
             static_cast<double>(g.forced_degrades()), "count");
  report.set("tools.skpd.plan_hit_rate", memo.plans.hit_rate(), "ratio");
  report.set("tools.skpd.select_hit_rate", memo.selections.hit_rate(),
             "ratio");
  report.set("tools.skpd.nodes_per_step",
             static_cast<double>(g.solver_nodes()) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, g.session_requests())),
             "count");
  report.set("loadgen.send_lag_p99_us", quantile(open_loops.lag_us, 0.99),
             "us");
  report.set("loadgen.cpu_frac",
             open_loops.generator_cpu_s / open_loops.wall_s, "ratio");
  gen.reset();
  drain(*daemon, report);
}

}  // namespace perfbench
