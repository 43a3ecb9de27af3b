// skpd daemon tests: wire protocol round-trips, the session store's
// exactly-once replay discipline, and live loopback runs against a
// spawned daemon (equivalence with netsim_des, resume bit-identity under
// forced connection drops, keepalive eviction, SIGTERM drain, slow-reader
// backpressure).
//
// The socket tests spawn the real skpd binary (SKPD_TEST_BIN, injected by
// CMake as the built tools/skpd path) through the same SkpdDaemonProcess
// helper the skpd_loopback driver uses, so "daemon drains on SIGTERM with
// exit 0" is asserted by every one of them.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <fcntl.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/netsim_stepper.hpp"
#include "sim/runtime.hpp"
#include "sim/skpd_client.hpp"
#include "sim/skpd_loopback.hpp"
#include "sim/skpd_protocol.hpp"
#include "sim/skpd_session.hpp"

#ifndef SKPD_TEST_BIN
#define SKPD_TEST_BIN "tools/skpd"
#endif

namespace skp {
namespace {

SimSpec netsim_spec(std::size_t requests = 200, std::uint64_t seed = 7) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.requests = requests;
  spec.seed = seed;
  spec.cache_size = 20;
  return spec;
}

// ---- Wire protocol ------------------------------------------------------

TEST(SkpdProtocol, FrameRoundTripAndPartialBuffer) {
  std::string wire;
  append_skpd_frame(wire, SkpdFrameType::kPing, "abc");
  append_skpd_frame(wire, SkpdFrameType::kBye, "");

  std::size_t offset = 0;
  const auto f1 = parse_skpd_frame(wire, offset);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, SkpdFrameType::kPing);
  EXPECT_EQ(f1->payload, "abc");
  const auto f2 = parse_skpd_frame(wire, offset);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, SkpdFrameType::kBye);
  EXPECT_TRUE(f2->payload.empty());
  EXPECT_EQ(offset, wire.size());
  EXPECT_FALSE(parse_skpd_frame(wire, offset).has_value());

  // Every truncated prefix of a valid frame parses to "not yet".
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t off = 0;
    const auto partial =
        parse_skpd_frame(std::string_view(wire).substr(0, cut), off);
    if (cut < 8) {  // shorter than frame 1 (4B length + type + "abc")
      EXPECT_FALSE(partial.has_value()) << cut;
      EXPECT_EQ(off, 0u);
    }
  }
}

TEST(SkpdProtocol, FramingRejectsCorruptPrefixes) {
  // Zero length.
  std::string zero("\x00\x00\x00\x00", 4);
  std::size_t off = 0;
  EXPECT_THROW(parse_skpd_frame(zero, off), std::invalid_argument);
  // Oversized length prefix: rejected before any buffering happens.
  std::string huge("\xff\xff\xff\x7f", 4);
  off = 0;
  EXPECT_THROW(parse_skpd_frame(huge, off), std::invalid_argument);
  // Unknown frame type.
  std::string bad("\x01\x00\x00\x00\x63", 5);
  off = 0;
  EXPECT_THROW(parse_skpd_frame(bad, off), std::invalid_argument);
}

TEST(SkpdProtocol, HandshakeAndStepPayloadsRoundTrip) {
  SkpdHello hello;
  hello.token = 42;
  hello.last_ack = 17;
  hello.spec_text = "driver=netsim_des\n";
  const SkpdHello h2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(h2.version, kSkpdProtocolVersion);
  EXPECT_EQ(h2.token, 42u);
  EXPECT_EQ(h2.last_ack, 17u);
  EXPECT_EQ(h2.spec_text, hello.spec_text);

  SkpdWelcome welcome;
  welcome.token = 9;
  welcome.executed = 123;
  welcome.resumed = true;
  const SkpdWelcome w2 = decode_welcome(encode_welcome(welcome));
  EXPECT_EQ(w2.token, 9u);
  EXPECT_EQ(w2.executed, 123u);
  EXPECT_TRUE(w2.resumed);

  SkpdStep step;
  step.seq = 1001;
  step.ack = 1000;
  const SkpdStep s2 = decode_step(encode_step(step));
  EXPECT_EQ(s2.seq, 1001u);
  EXPECT_EQ(s2.ack, 1000u);

  EXPECT_EQ(decode_ping(encode_ping(0xabcdef0123456789ull)),
            0xabcdef0123456789ull);
}

TEST(SkpdProtocol, StepResultRoundTripsDoublesExactly) {
  NetsimStepSnapshot snap;
  snap.seq = 77;
  snap.T = 0.1 + 0.2;  // famously not 0.3: must survive bit-exactly
  snap.requests = 77;
  snap.hits = 41;
  snap.demand_fetches = 36;
  snap.prefetch_fetches = 55;
  snap.solver_nodes = 1234567;
  snap.plans = 70;
  snap.deadline_hits = 3;
  EXPECT_EQ(decode_step_result(encode_step_result(snap)), snap);
}

TEST(SkpdProtocol, SimSpecRoundTripsIncludingLinkSchedule) {
  SimSpec spec = netsim_spec(500, 99);
  spec.bandwidth = 2.5;
  spec.latency = 0.125;
  spec.min_profit_threshold = 0.07;
  spec.predictor = PredictorKind::Markov1;
  spec.predictor_min_prob = 0.02;
  spec.predictor_warmup = 64;
  spec.fault.fail_rate = 0.1;
  spec.fault.retry.max_attempts = 3;
  spec.fault.retry.backoff_base = 0.5;
  spec.fault.retry.jitter = 0.25;
  spec.link_schedule = {{10.0, 1.0, 0.0}, {5.0, 0.25, 1.5}};
  const SimSpec back = decode_sim_spec(encode_sim_spec(spec));
  EXPECT_EQ(back, spec);
}

TEST(SkpdProtocol, SimSpecDecodeRejectsUnknownKeys) {
  std::string text = encode_sim_spec(netsim_spec());
  text += "frobnicate=1\n";
  EXPECT_THROW(decode_sim_spec(text), std::invalid_argument);
}

TEST(SkpdProtocol, SimSpecDecodeRejectsNonFiniteValues) {
  // std::from_chars parses "nan" and "inf". Each of these decoded and
  // ran before: a NaN min-prob filtered nothing, a NaN threshold and an
  // infinite deadline disabled their checks, an infinite v_hi read mean
  // T 0. A later key overrides an earlier one, so each case appends one
  // line to a valid spec.
  const std::string base = encode_sim_spec(netsim_spec());
  for (const char* line :
       {"predictor_min_prob=nan", "min_profit_threshold=nan", "v_hi=inf",
        "deadline=inf", "bandwidth=-inf", "link_schedule=1:inf:0"}) {
    SCOPED_TRACE(line);
    EXPECT_THROW(decode_sim_spec(base + line + "\n"),
                 std::invalid_argument);
  }
  // The same keys with finite values still decode.
  const SimSpec ok =
      decode_sim_spec(base + "predictor_min_prob=0.02\ndeadline=5\n");
  EXPECT_EQ(ok.predictor_min_prob, 0.02);
  EXPECT_EQ(ok.deadline, 5.0);
}

TEST(SkpdProtocol, SimResultRoundTripsTheNetsimBooks) {
  const SimResult res = run_sim(netsim_spec(300, 11));
  const SimResult back = decode_sim_result(encode_sim_result(res));
  EXPECT_EQ(back.metrics.requests, res.metrics.requests);
  EXPECT_EQ(back.metrics.hits, res.metrics.hits);
  EXPECT_EQ(back.metrics.demand_fetches, res.metrics.demand_fetches);
  EXPECT_EQ(back.metrics.prefetch_fetches, res.metrics.prefetch_fetches);
  EXPECT_EQ(back.metrics.wasted_prefetches, res.metrics.wasted_prefetches);
  EXPECT_EQ(back.metrics.solver_nodes, res.metrics.solver_nodes);
  // The OnlineStats state ships exactly (n, mean, m2, min, max).
  EXPECT_EQ(back.metrics.access_time.count(), res.metrics.access_time.count());
  EXPECT_EQ(back.metrics.access_time.mean(), res.metrics.access_time.mean());
  EXPECT_EQ(back.metrics.access_time.m2(), res.metrics.access_time.m2());
  EXPECT_EQ(back.metrics.access_time.min(), res.metrics.access_time.min());
  EXPECT_EQ(back.metrics.access_time.max(), res.metrics.access_time.max());
  EXPECT_EQ(back.metrics.network_time, res.metrics.network_time);
  EXPECT_EQ(back.plans, res.plans);
  EXPECT_EQ(back.deadline_hits, res.deadline_hits);
  EXPECT_EQ(back.link_utilization, res.link_utilization);
  EXPECT_EQ(back.fault, res.fault);
  EXPECT_EQ(back.plan_cache.plans.hits, res.plan_cache.plans.hits);
  EXPECT_EQ(back.plan_cache.plans.misses, res.plan_cache.plans.misses);
  EXPECT_EQ(back.plan_cache.selections.hits, res.plan_cache.selections.hits);
  EXPECT_EQ(back.overload.transitions, res.overload.transitions);
}

// ---- Session store ------------------------------------------------------

TEST(SkpdSessionStore, ExactlyOnceReplayIsBitIdentical) {
  SkpdSessionStore store;
  SkpdSession& session = store.create(encode_sim_spec(netsim_spec(50)));
  EXPECT_EQ(session.token(), 1u);
  EXPECT_EQ(store.find(1), &session);
  EXPECT_EQ(store.find(99), nullptr);

  // Execute 1..5 without acking; all five stay buffered.
  std::vector<NetsimStepSnapshot> first;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    first.push_back(session.step(seq, 0));
    EXPECT_EQ(first.back().seq, seq);
  }
  EXPECT_EQ(session.unacked(), 5u);

  // Re-request the full window: replayed results are the SAME snapshots,
  // and nothing executes twice.
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(session.step(seq, 0), first[seq - 1]) << seq;
  }
  EXPECT_EQ(session.executed(), 5u);

  // Acking prunes the buffer and narrows the window.
  session.acknowledge(3);
  EXPECT_EQ(session.unacked(), 2u);
  EXPECT_EQ(session.step(4, 3), first[3]);
  EXPECT_THROW(session.step(3, 3), std::invalid_argument);  // below window
  EXPECT_THROW(session.step(7, 3), std::invalid_argument);  // above window
  EXPECT_THROW(session.acknowledge(9), std::invalid_argument);
}

TEST(SkpdSessionStore, ResumedTrajectoryMatchesUninterrupted) {
  const SimSpec spec = netsim_spec(120, 21);
  NetsimStepper golden(spec);

  SkpdSessionStore store;
  SkpdSession& session = store.create(encode_sim_spec(spec));
  std::uint64_t acked = 0;
  // Drive with a crash-and-replay pattern: every 7th result is "lost"
  // (not acked, re-requested), mimicking a client dying between receive
  // and ack.
  for (std::uint64_t seq = 1; seq <= spec.requests; ++seq) {
    const NetsimStepSnapshot expect = golden.step();
    NetsimStepSnapshot got = session.step(seq, acked);
    if (seq % 7 == 0) {
      got = session.step(seq, acked);  // replay after the simulated loss
    }
    EXPECT_EQ(got, expect) << "cycle " << seq;
    acked = seq;
  }
  EXPECT_TRUE(session.done());
  // And the final books equal the uninterrupted run's, field for field.
  const SimResult via_session = session.stepper().result();
  const SimResult via_run = run_sim(spec);
  EXPECT_EQ(via_session.metrics.hits, via_run.metrics.hits);
  EXPECT_EQ(via_session.metrics.solver_nodes, via_run.metrics.solver_nodes);
  EXPECT_EQ(via_session.plans, via_run.plans);
  EXPECT_THROW(session.step(spec.requests + 1, spec.requests),
               std::invalid_argument);
}

TEST(SkpdSessionStore, RejectsMalformedSpecs) {
  SkpdSessionStore store;
  EXPECT_THROW(store.create("not a spec"), std::invalid_argument);
  // A spec netsim_des cannot serve (wrong driver requests are fine —
  // the daemon hosts the netsim path regardless — but warmup is not).
  SimSpec bad = netsim_spec();
  bad.warmup = 10;
  EXPECT_THROW(store.create(encode_sim_spec(bad)), std::invalid_argument);
}

TEST(SkpdSessionStore, ForEachVisitsTokensAscending) {
  // The drain-order contract: for_each yields the live tokens in
  // ascending order, and erasing or creating sessions never moves a
  // live one (the poll loop parks raw SkpdSession*).
  SkpdSessionStore store;
  const std::string spec = encode_sim_spec(netsim_spec(50));
  for (int i = 0; i < 5; ++i) store.create(spec);
  SkpdSession* first = store.find(1);
  store.erase(2);
  store.erase(4);
  for (int i = 0; i < 3; ++i) store.create(spec);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.find(1), first);
  EXPECT_EQ(store.find(2), nullptr);

  std::vector<std::uint64_t> order;
  store.for_each([&](std::uint64_t token, SkpdSession& session) {
    EXPECT_EQ(session.token(), token);
    order.push_back(token);
  });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 5, 6, 7, 8}));
}

// ---- Live daemon over loopback ------------------------------------------

std::string daemon_binary() { return SKPD_TEST_BIN; }

TEST(SkpdDaemon, LoopbackRunMatchesInProcessGolden) {
  const SimSpec spec = netsim_spec(250, 5);
  SkpdDaemonProcess daemon(daemon_binary());
  SkpdClientConfig cfg;
  cfg.port = daemon.port();
  SkpdClient client(cfg, spec);

  NetsimStepper golden(spec);
  while (!client.done()) {
    EXPECT_EQ(client.step(), golden.step());
  }
  const SimResult via_daemon = client.finish();
  const SimResult via_run = run_sim(spec);
  EXPECT_EQ(via_daemon.metrics.requests, via_run.metrics.requests);
  EXPECT_EQ(via_daemon.metrics.hits, via_run.metrics.hits);
  EXPECT_EQ(via_daemon.metrics.solver_nodes, via_run.metrics.solver_nodes);
  EXPECT_EQ(via_daemon.metrics.access_time.mean(),
            via_run.metrics.access_time.mean());
  EXPECT_EQ(via_daemon.plans, via_run.plans);
  EXPECT_EQ(client.reconnects(), 0u);

  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SkpdDaemon, KilledConnectionResumesBitIdentically) {
  const SimSpec spec = netsim_spec(200, 13);
  SkpdDaemonProcess daemon(daemon_binary());
  SkpdClientConfig cfg;
  cfg.port = daemon.port();
  cfg.drop_every = 17;  // hard-drop the connection before every 17th step
  SkpdClient client(cfg, spec);

  NetsimStepper golden(spec);
  while (!client.done()) {
    EXPECT_EQ(client.step(), golden.step());
  }
  // The chaos knob actually fired, and the trajectory above still
  // matched cycle for cycle — resume is bit-identical, not approximate.
  EXPECT_GT(client.reconnects(), 0u);
  const SimResult via_daemon = client.finish();
  const SimResult via_run = run_sim(spec);
  EXPECT_EQ(via_daemon.metrics.hits, via_run.metrics.hits);
  EXPECT_EQ(via_daemon.metrics.solver_nodes, via_run.metrics.solver_nodes);
  EXPECT_EQ(via_daemon.plans, via_run.plans);

  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SkpdDaemon, DriverMatchesNetsimDesRowAndChaosMatchesCalm) {
  SimSpec spec = netsim_spec(150, 3);
  ::setenv("SKPD_BIN", daemon_binary().c_str(), 1);
  ::unsetenv("SKPD_ADDR");
  ::unsetenv("SKPD_DROP_EVERY");
  spec.driver = SimDriverKind::SkpdLoopback;
  const SimResult calm = run_sim(spec);

  ::setenv("SKPD_DROP_EVERY", "23", 1);
  const SimResult chaos = run_sim(spec);
  ::unsetenv("SKPD_DROP_EVERY");
  ::unsetenv("SKPD_BIN");

  spec.driver = SimDriverKind::NetsimDes;
  const SimResult golden = run_sim(spec);
  for (const SimResult* r : {&calm, &chaos}) {
    EXPECT_EQ(r->metrics.requests, golden.metrics.requests);
    EXPECT_EQ(r->metrics.hits, golden.metrics.hits);
    EXPECT_EQ(r->metrics.solver_nodes, golden.metrics.solver_nodes);
    EXPECT_EQ(r->metrics.access_time.mean(),
              golden.metrics.access_time.mean());
    EXPECT_EQ(r->plans, golden.plans);
    EXPECT_EQ(r->deadline_hits, golden.deadline_hits);
  }
}

TEST(SkpdDaemon, DriverRejectsWithoutDaemonEnvironment) {
  ::unsetenv("SKPD_BIN");
  ::unsetenv("SKPD_ADDR");
  SimSpec spec = netsim_spec(10);
  spec.driver = SimDriverKind::SkpdLoopback;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
}

// Runs the daemon with one flag and collects its stdout and exit status.
// A daemon that starts listening anyway prints its banner and is killed,
// and an alarm ends one that never gets that far (say, preloading 2^64-1
// sessions), so a regression fails the test instead of hanging it.
struct FlagRun {
  int status = 0;
  std::string out;
};

FlagRun run_daemon_with_flag(const std::string& flag) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const std::string bin = daemon_binary();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(5);  // survives execv; skpd leaves SIGALRM at its default
    ::dup2(fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    char* argv[] = {const_cast<char*>(bin.c_str()),
                    const_cast<char*>(flag.c_str()), nullptr};
    ::execv(bin.c_str(), argv);
    ::_exit(127);
  }
  ::close(fds[1]);
  FlagRun run;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    run.out.append(buf, static_cast<std::size_t>(n));
    if (run.out.find("SKPD_PORT=") != std::string::npos) {
      ::kill(pid, SIGKILL);
      break;
    }
  }
  ::close(fds[0]);
  ::waitpid(pid, &run.status, 0);
  return run;
}

TEST(SkpdDaemon, MalformedNumericFlagsExitTwoBeforeListening) {
  // Trailing junk, signs, padding, NaN/infinity and out-of-range values
  // are usage errors: exit 2 before the daemon binds a port.
  for (const char* flag :
       {"--port=0x", "--port=-1", "--port=65536", "--port= 1",
        "--keepalive=nan", "--keepalive=inf", "--keepalive=5s",
        "--session-linger=", "--drain-timeout=1e999",
        "--write-queue-soft=4096abc", "--write-queue-hard=-1",
        "--sndbuf=-1", "--sndbuf=2147483648", "--preload-sessions=-1",
        "--preload-sessions=+1"}) {
    const FlagRun run = run_daemon_with_flag(flag);
    EXPECT_EQ(run.out.find("SKPD_PORT="), std::string::npos) << flag;
    EXPECT_TRUE(WIFEXITED(run.status) && WEXITSTATUS(run.status) == 2)
        << flag << ": wait status " << run.status;
  }
}

TEST(SkpdDaemon, KeepaliveEvictsSilentPeerButSessionSurvives) {
  const SimSpec spec = netsim_spec(60, 9);
  // Aggressive keepalive so the test stays fast: ping at 0.15s idle,
  // evict at 0.3s.
  SkpdDaemonProcess daemon(daemon_binary(), {"--keepalive=0.3"});
  SkpdClientConfig cfg;
  cfg.port = daemon.port();
  SkpdClient client(cfg, spec);
  NetsimStepper golden(spec);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(client.step(), golden.step());
  // Go silent past the eviction deadline WITHOUT reading the socket, so
  // the daemon's PINGs go unanswered and it evicts the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  // The next step rides the reconnect/resume path and stays on the
  // golden trajectory.
  while (!client.done()) EXPECT_EQ(client.step(), golden.step());
  EXPECT_GT(client.reconnects(), 0u);
  (void)client.finish();
  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SkpdDaemon, SigtermDrainWritesCompleteStatsCsvAndExitsZero) {
  const std::string csv_path =
      ::testing::TempDir() + "skpd_drain_stats.csv";
  std::remove(csv_path.c_str());
  const SimSpec spec = netsim_spec(40, 17);
  {
    SkpdDaemonProcess daemon(daemon_binary(),
                             {"--stats-csv=" + csv_path});
    SkpdClientConfig cfg;
    cfg.port = daemon.port();
    SkpdClient client(cfg, spec);
    for (int i = 0; i < 12; ++i) (void)client.step();
    // SIGTERM with the session mid-run and the connection open: the
    // daemon must drain and still exit 0.
    const int status = daemon.terminate();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good()) << csv_path;
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("token,executed,total,done,", 0), 0u) << header;
  ASSERT_TRUE(std::getline(in, row)) << "expected one session row";
  std::istringstream cells(row);
  std::string token, executed;
  std::getline(cells, token, ',');
  std::getline(cells, executed, ',');
  EXPECT_EQ(token, "1");
  EXPECT_EQ(executed, "12");
  std::remove(csv_path.c_str());
}

// Minimal raw-socket helper for the backpressure test: SkpdClient is
// strictly synchronous, and backpressure only builds when results pile
// up unread.
class RawPipelineClient {
 public:
  explicit RawPipelineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    // A tiny receive buffer makes the daemon's send() back up quickly.
    const int tiny = 1024;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawPipelineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_frame(SkpdFrameType type, const std::string& payload) {
    std::string wire;
    append_skpd_frame(wire, type, payload);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  // Blocking read of the next frame (test-scale simplicity).
  SkpdFrame read_frame(std::string& storage) {
    for (;;) {
      std::size_t off = off_;
      if (const auto frame = parse_skpd_frame(rx_, off)) {
        off_ = off;
        storage.assign(frame->payload);
        return SkpdFrame{frame->type, storage};
      }
      char buf[512];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        throw std::runtime_error("daemon closed the pipe");
      }
      rx_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string rx_;
  std::size_t off_ = 0;
};

TEST(SkpdDaemon, SlowReaderIsForcedDownTheDegradationLadder) {
  // Soft limit of one byte: the first STEP_RESULT that cannot be
  // flushed to the (tiny, unread) socket forces the session one rung
  // down. The hard limit stays huge so the connection itself survives.
  const SimSpec spec = netsim_spec(2000, 29);
  // The tiny --sndbuf keeps kernel buffering from masking the userspace
  // queue: results must actually pile up in the daemon's write queue.
  SkpdDaemonProcess daemon(
      daemon_binary(),
      {"--write-queue-soft=1", "--write-queue-hard=100000000",
       "--sndbuf=4096"});
  RawPipelineClient raw(daemon.port());

  SkpdHello hello;
  hello.spec_text = encode_sim_spec(spec);
  raw.send_frame(SkpdFrameType::kHello, encode_hello(hello));
  std::string storage;
  ASSERT_EQ(raw.read_frame(storage).type, SkpdFrameType::kWelcome);

  // Pipeline every STEP without reading a single result: the daemon's
  // write queue backs up behind our 1KB receive buffer.
  for (std::uint64_t seq = 1; seq <= spec.requests; ++seq) {
    SkpdStep step;
    step.seq = seq;
    step.ack = seq - 1;
    raw.send_frame(SkpdFrameType::kStep, encode_step(step));
  }
  // Now drain all results (answering keepalive PINGs if they interleave)
  // and fetch the final books.
  std::uint64_t last_seq = 0;
  while (last_seq < spec.requests) {
    const SkpdFrame frame = raw.read_frame(storage);
    if (frame.type == SkpdFrameType::kPing) {
      raw.send_frame(SkpdFrameType::kPong,
                     encode_ping(decode_ping(frame.payload)));
      continue;
    }
    ASSERT_EQ(frame.type, SkpdFrameType::kStepResult);
    last_seq = decode_step_result(frame.payload).seq;
  }
  raw.send_frame(SkpdFrameType::kStats, {});
  SkpdFrame stats = raw.read_frame(storage);
  while (stats.type == SkpdFrameType::kPing) {
    raw.send_frame(SkpdFrameType::kPong,
                   encode_ping(decode_ping(stats.payload)));
    stats = raw.read_frame(storage);
  }
  ASSERT_EQ(stats.type, SkpdFrameType::kStatsResult);
  const SimResult result = decode_sim_result(stats.payload);

  // The overload controller recorded at least one FORCED transition —
  // the slow reader got degraded service, not unbounded buffering. The
  // run is complete all the same (correctness under pressure).
  EXPECT_GT(result.overload.forced_transitions, 0u);
  EXPECT_EQ(result.metrics.requests, spec.requests);
  raw.send_frame(SkpdFrameType::kBye, {});

  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SkpdDaemon, AbsurdCatalogIsRefusedWithoutTakingTheDaemonDown) {
  // A catalog past any vector's max_size makes session creation throw
  // std::length_error before anything is allocated — not an
  // invalid_argument. The daemon must answer ERROR on that connection
  // only and keep serving everyone else.
  SkpdDaemonProcess daemon(daemon_binary());
  {
    SimSpec absurd = netsim_spec();
    absurd.workload.n_items = std::size_t{1} << 62;
    RawPipelineClient raw(daemon.port());
    SkpdHello hello;
    hello.spec_text = encode_sim_spec(absurd);
    raw.send_frame(SkpdFrameType::kHello, encode_hello(hello));
    std::string storage;
    EXPECT_EQ(raw.read_frame(storage).type, SkpdFrameType::kError);
  }

  const SimSpec spec = netsim_spec(60, 3);
  SkpdClientConfig cfg;
  cfg.port = daemon.port();
  SkpdClient client(cfg, spec);
  NetsimStepper golden(spec);
  while (!client.done()) {
    EXPECT_EQ(client.step(), golden.step());
  }
  EXPECT_EQ(client.finish().metrics.requests, spec.requests);

  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SkpdDaemon, NonFiniteSpecValueIsRefusedAndTheNextClientServed) {
  // A NaN predictor_min_prob used to run every learned row unfiltered.
  // The HELLO now draws ERROR on its connection, and the daemon keeps
  // serving the next one.
  SkpdDaemonProcess daemon(daemon_binary());
  {
    SimSpec learned = netsim_spec();
    learned.predictor = PredictorKind::Lz78;
    RawPipelineClient raw(daemon.port());
    SkpdHello hello;
    hello.spec_text = encode_sim_spec(learned) + "predictor_min_prob=nan\n";
    raw.send_frame(SkpdFrameType::kHello, encode_hello(hello));
    std::string storage;
    const SkpdFrame reply = raw.read_frame(storage);
    EXPECT_EQ(reply.type, SkpdFrameType::kError);
    EXPECT_NE(std::string(reply.payload).find("predictor_min_prob"),
              std::string::npos)
        << reply.payload;
  }

  const SimSpec spec = netsim_spec(60, 3);
  SkpdClientConfig cfg;
  cfg.port = daemon.port();
  SkpdClient client(cfg, spec);
  NetsimStepper golden(spec);
  while (!client.done()) {
    EXPECT_EQ(client.step(), golden.step());
  }
  EXPECT_EQ(client.finish().metrics.requests, spec.requests);

  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SkpdDaemon, OutDegreeBoundPastInt64IsRefusedWithAnError) {
  // A HELLO's out_degree_hi reaches the chain draw, which takes the bound
  // as a signed 64-bit integer: a larger value is refused on that
  // connection, not wrapped.
  SkpdDaemonProcess daemon(daemon_binary());
  {
    SimSpec bad = netsim_spec();
    bad.workload.out_degree_lo = 2;
    bad.workload.out_degree_hi = std::numeric_limits<std::size_t>::max();
    RawPipelineClient raw(daemon.port());
    SkpdHello hello;
    hello.spec_text = encode_sim_spec(bad);
    raw.send_frame(SkpdFrameType::kHello, encode_hello(hello));
    std::string storage;
    const SkpdFrame reply = raw.read_frame(storage);
    EXPECT_EQ(reply.type, SkpdFrameType::kError);
    EXPECT_NE(std::string(reply.payload).find("out-degree upper bound"),
              std::string::npos)
        << reply.payload;
  }
  const int status = daemon.terminate();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace skp
