#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "sim/skpd_protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.emplace_back(name, std::make_pair(value, unit));
}

void Report::fail_check(const std::string& what) {
  checks_ok = false;
  std::cerr << "perfbench: output check failed: " << what << "\n";
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (checks_ok && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out << ", ";
    first = false;
    char buf[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << "\"" << name << "\": {\"value\": " << buf << ", \"unit\": \""
        << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

double peak_rss_mb(int pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double process_cpu_s(int pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime/stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double run_pass(const std::vector<skp::SimSpec>& specs,
                std::vector<skp::SimResult>& results,
                std::vector<double>* best_s) {
  results.resize(specs.size());
  if (best_s != nullptr) {
    best_s->resize(specs.size(), std::numeric_limits<double>::infinity());
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto ts = Clock::now();
    results[i] = skp::run_sim(specs[i]);
    if (best_s != nullptr) {
      (*best_s)[i] = std::min((*best_s)[i], seconds_since(ts));
    }
  }
  return seconds_since(t0);
}

void report_best_times(Report& report, const std::vector<double>& best_s,
                       const std::vector<std::uint64_t>& requests) {
  double total_s = 0.0, total_requests = 0.0;
  std::vector<double> us_per_request;
  for (std::size_t i = 0; i < best_s.size(); ++i) {
    const auto n = static_cast<double>(requests[i]);
    total_s += best_s[i];
    total_requests += n;
    us_per_request.push_back(best_s[i] * 1e6 / n);
  }
  report.set("requests_per_s", total_requests / total_s, "req/s");
  report.set("latency_p50_us", quantile(us_per_request, 0.5), "us");
  report.set("latency_p90_us", quantile(us_per_request, 0.9), "us");
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next(int other) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
  ::sched_setaffinity(0, sizeof(one), &one);
  if (other > 0) ::sched_setaffinity(other, sizeof(one), &one);
}

std::string result_digest(const skp::SimResult& result) {
  // encode_sim_result is exact but carries single-client results only;
  // per-client rows are digested one by one.
  skp::SimResult merged = result;
  merged.per_client.clear();
  std::ostringstream out;
  out << skp::encode_sim_result(merged) << "over_viewing_time="
      << result.over_viewing_time << "\nchurn_events="
      << result.churn_events << "\n";
  for (const skp::SimMetrics& client : result.per_client) {
    skp::SimResult row;
    row.metrics = client;
    out << skp::encode_sim_result(row);
  }
  return out.str();
}

std::string digest_without_memo(skp::SimResult result) {
  result.plan_cache = {};
  return result_digest(result);
}

void check_repeat(const std::vector<skp::SimResult>& results,
                  std::vector<skp::SimResult>& first, const char* what,
                  Report& report) {
  if (first.empty()) {
    first = results;
    return;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (result_digest(results[i]) != result_digest(first[i])) {
      ++report.failed;
      report.fail_check(std::string(what) + " " + std::to_string(i) +
                        " not deterministic across passes");
    }
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return skp::Rng(seed).split(salt).next_u64();
}

Tracer::Tracer(std::vector<std::string> layer_names,
               std::uint64_t sample_every)
    : names_(std::move(layer_names)),
      sample_every_(std::max<std::uint64_t>(1, sample_every)),
      self_ns_(names_.size(), 0.0),
      calls_(names_.size(), 0) {}

void Tracer::begin_request(std::uint64_t request_id) {
  current_ = request_id;
  sampled_ = request_id % sample_every_ == 0;
  if (sampled_) root_id_ = ++next_id_;
  request_start_ = now_ns();
}

void Tracer::end_request() {
  const std::int64_t end = now_ns();
  request_ns_ += static_cast<double>(end - request_start_);
  ++requests_;
  if (sampled_) {
    spans_.push_back({current_, root_id_, 0,
                      static_cast<std::uint32_t>(names_.size()),
                      request_start_, end});
  }
}

void Tracer::close(std::size_t layer, std::int64_t start, std::int64_t end) {
  // Layer spans are leaves: self time is the whole span.
  self_ns_[layer] += static_cast<double>(end - start);
  ++calls_[layer];
  if (sampled_) {
    spans_.push_back({current_, ++next_id_, root_id_,
                      static_cast<std::uint32_t>(layer), start, end});
  }
}

double Tracer::coverage() const {
  double sum = 0.0;
  for (const double ns : self_ns_) sum += ns;
  return request_ns_ > 0.0 ? sum / request_ns_ : 0.0;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  out << "request,span,parent,name,start_ns,end_ns\n";
  std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) base = std::min(base, s.start);
  for (const Span& s : spans_) {
    out << s.request << ',' << s.id << ',' << s.parent << ','
        << (s.name < names_.size() ? names_[s.name] : "request") << ','
        << (s.start - base) << ',' << (s.end - base) << '\n';
  }
}

}  // namespace perfbench
