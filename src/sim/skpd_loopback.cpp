#include "sim/skpd_loopback.hpp"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/skpd_client.hpp"
#include "util/require.hpp"

namespace skp {

SkpdDaemonProcess::SkpdDaemonProcess(const std::string& binary,
                                     std::vector<std::string> extra_args) {
  int pipe_fds[2];
  SKP_REQUIRE(::pipe(pipe_fds) == 0,
              "pipe: " << std::strerror(errno));
  const pid_t pid = ::fork();
  SKP_REQUIRE(pid >= 0, "fork: " << std::strerror(errno));
  if (pid == 0) {
    // Child: stdout -> pipe so the parent can read the port banner.
    ::close(pipe_fds[0]);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[1]);
    std::vector<std::string> args;
    args.push_back(binary);
    args.push_back("--port=0");
    for (auto& a : extra_args) args.push_back(std::move(a));
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    // Exec failed; the parent will see EOF before any port banner.
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  // Read stdout until the SKPD_PORT banner (the daemon prints it once
  // the listener is bound, so a successful read means "ready").
  std::string banner;
  char c;
  bool found = false;
  while (!found) {
    const ssize_t n = ::read(pipe_fds[0], &c, 1);
    if (n <= 0) break;  // EOF: the child died before binding
    if (c == '\n') {
      if (banner.rfind("SKPD_PORT=", 0) == 0) {
        port_ = std::atoi(banner.c_str() + 10);
        found = true;
      }
      banner.clear();
    } else {
      banner.push_back(c);
    }
  }
  ::close(pipe_fds[0]);
  if (!found || port_ <= 0) {
    terminate();
    SKP_REQUIRE(false, "skpd daemon '" << binary
                                       << "' did not announce a port");
  }
}

int SkpdDaemonProcess::terminate() {
  if (reaped_) return status_;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    status_ = status;
  }
  reaped_ = true;
  return status_;
}

SkpdDaemonProcess::~SkpdDaemonProcess() { terminate(); }

namespace {

std::size_t env_size(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

}  // namespace

SimResult run_skpd_loopback_driver(const SimSpec& spec) {
  require_read_sections(spec, SimDriverKind::SkpdLoopback);
  SkpdClientConfig cfg;
  cfg.drop_every = env_size("SKPD_DROP_EVERY");

  // Transport resolution: external daemon beats private spawn.
  std::unique_ptr<SkpdDaemonProcess> daemon;
  const char* addr = std::getenv("SKPD_ADDR");
  if (addr != nullptr && *addr != '\0') {
    const std::string a = addr;
    const std::size_t colon = a.rfind(':');
    SKP_REQUIRE(colon != std::string::npos && colon > 0,
                "SKPD_ADDR must be host:port, got " << a);
    cfg.host = a.substr(0, colon);
    cfg.port = std::atoi(a.c_str() + colon + 1);
  } else {
    const char* bin = std::getenv("SKPD_BIN");
    SKP_REQUIRE(bin != nullptr && *bin != '\0',
                "skpd_loopback needs a daemon: set SKPD_ADDR=host:port "
                "to attach to a running skpd, or SKPD_BIN=path/to/skpd "
                "to spawn a private one");
    daemon = std::make_unique<SkpdDaemonProcess>(bin);
    cfg.port = daemon->port();
  }

  SkpdClient client(cfg, spec);
  NetsimStepSnapshot last;
  while (!client.done()) last = client.step();
  SimResult result = client.finish();

  // The per-step stream and the final result are produced by the same
  // stepper; a mismatch means wire corruption or a daemon bug, and a
  // row must never be emitted from inconsistent books.
  SKP_REQUIRE(last.requests == result.metrics.requests &&
                  last.hits == result.metrics.hits &&
                  last.solver_nodes == result.metrics.solver_nodes &&
                  last.plans == result.plans &&
                  last.deadline_hits == result.deadline_hits,
              "skpd step stream disagrees with the final result");

  if (daemon) {
    const int status = daemon->terminate();
    SKP_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                "skpd daemon did not drain cleanly (status " << status
                                                             << ")");
  }
  return result;
}

}  // namespace skp
