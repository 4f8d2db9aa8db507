#include "harness.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "kernels/triad.h"
#include "probe.h"
#include "runtime/executor/pricing.h"
#include "util/stats.h"

namespace mcopt::perf {

void HostSpeed::quiesced() {
  // Slices due since the last one, keeping probing near 5% of wall time.
  const double due = seconds_between(last_, Clock::now()) / (20.0 * last_cost_s_);
  const int slices = due >= 8.0 ? 8 : static_cast<int>(due);
  for (int i = 0; i < slices; ++i) slice();
}

HostSpeed::HostSpeed(unsigned threads)
    : thread_s_(threads), sync_(static_cast<std::ptrdiff_t>(threads)) {
  try {
    for (unsigned t = 1; t < threads; ++t)
      helpers_.emplace_back([this, t] { helper(t); });
  } catch (...) {
    // Release the helpers already parked and drop the ones never started.
    for (std::size_t t = helpers_.size() + 1; t < threads; ++t)
      sync_.arrive_and_drop();
    stop_ = true;
    sync_.arrive_and_wait();
    throw;
  }
}

HostSpeed::~HostSpeed() {
  stop_ = true;
  sync_.arrive_and_wait();
}

void HostSpeed::helper(unsigned index) {
  for (;;) {
    sync_.arrive_and_wait();
    if (stop_) return;
    thread_s_[index] = probe_slice_seconds();
    sync_.arrive_and_wait();
  }
}

void HostSpeed::slice() {
  const obs::TraceSpan span("perf.probe", "perf");
  const Clock::time_point t0 = Clock::now();
  sync_.arrive_and_wait();
  thread_s_[0] = probe_slice_seconds();
  sync_.arrive_and_wait();
  lap_slices_.push_back(util::mean(thread_s_));
  last_ = Clock::now();
  last_cost_s_ = seconds_between(t0, last_);
  spent_s_ += last_cost_s_;
}

double HostSpeed::lap_scale() const {
  if (lap_slices_.empty()) return 1.0;
  return kReferenceSliceS / util::median(lap_slices_);
}

void TraceWindow::open() {
  if (record_) {
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    rec.reset();
    rec.enable(kTraceRingSlots);
    span_.emplace("perf.window", "perf");
  }
  timer_.emplace(speed_);
}

void TraceWindow::close(double ops) {
  seconds_ = timer_->seconds();
  ops_ = ops;
  if (record_) {
    span_.reset();
    obs::TraceRecorder::instance().disable();
  }
  closed_ = true;
}

double Layers::driver_self(std::initializer_list<const char*> names) const {
  double total = 0.0;
  for (const char* name : names) {
    const auto it = driver_self_s.find(name);
    if (it != driver_self_s.end()) total += it->second;
  }
  return total;
}

double Layers::driver_share(std::initializer_list<const char*> names) const {
  return wall_s > 0.0 ? driver_self(names) / wall_s : 0.0;
}

double Layers::worker_sum(const char* name) const {
  const auto it = worker_total_s.find(name);
  return it == worker_total_s.end() ? 0.0 : it->second;
}

Layers analyze_trace() {
  const obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  const std::vector<obs::TraceEvent> events = rec.snapshot();
  Layers out;
  out.threads = rec.threads_seen();
  out.events = rec.recorded();
  out.dropped = rec.dropped();

  std::uint32_t driver = 0;
  for (const obs::TraceEvent& e : events)
    if (e.phase == obs::Phase::kBegin && std::string_view(e.name) == "perf.window")
      driver = e.tid;

  // Per-thread open-span stacks; snapshot() keeps each thread's own order.
  struct Open {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::map<std::uint64_t, std::uint64_t> admitted_ns;
  for (const obs::TraceEvent& e : events) {
    const std::string_view name(e.name);
    switch (e.phase) {
      case obs::Phase::kBegin:
        stacks[e.tid].push_back({e.name, e.ts_ns, 0});
        break;
      case obs::Phase::kEnd: {
        std::vector<Open>& stack = stacks[e.tid];
        if (stack.empty() || std::string_view(stack.back().name) != name)
          break;  // begin fell outside the recorded window
        const Open span = stack.back();
        stack.pop_back();
        const std::uint64_t dur = e.ts_ns - span.begin_ns;
        if (!stack.empty()) stack.back().child_ns += dur;
        const double secs = static_cast<double>(dur) * 1e-9;
        ++out.counts[span.name];
        if (e.tid == driver) {
          out.driver_self_s[span.name] +=
              static_cast<double>(dur - std::min(dur, span.child_ns)) * 1e-9;
          out.driver_durations_s[span.name].push_back(secs);
          if (name == "perf.window") out.wall_s = secs;
        } else {
          out.worker_total_s[span.name] += secs;
        }
        if (name == "job.run") out.job_run_s[e.a] = secs;
        break;
      }
      case obs::Phase::kInstant:
        if (name == "job.admit") {
          admitted_ns[e.a] = e.ts_ns;
        } else if (name == "job.start") {
          const auto it = admitted_ns.find(e.a);
          if (it != admitted_ns.end())
            out.queue_wait_s[e.a] =
                static_cast<double>(e.ts_ns - std::min(e.ts_ns, it->second)) *
                1e-9;
        }
        break;
      default:
        break;
    }
  }
  return out;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// Linear-interpolated percentile (as util::percentile) of sorted samples.
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit, 0, 0.0, 0.0};
}

void Report::median_metric(const std::string& name, std::vector<double> samples,
                           const std::string& unit) {
  std::sort(samples.begin(), samples.end());
  metrics_[name] = Metric{sorted_percentile(samples, 50.0), unit,
                          samples.size(), sorted_percentile(samples, 25.0),
                          sorted_percentile(samples, 75.0)};
}

void Report::latency_metrics(const std::string& prefix,
                             std::vector<std::vector<double>> laps) {
  std::vector<double> p50, p99, p999;
  std::size_t n = 0;
  for (std::vector<double>& lap : laps) {
    if (lap.empty()) continue;
    std::sort(lap.begin(), lap.end());
    n += lap.size();
    p50.push_back(1e3 * sorted_percentile(lap, 50.0));
    p99.push_back(1e3 * sorted_percentile(lap, 99.0));
    p999.push_back(1e3 * sorted_percentile(lap, 99.9));
  }
  const auto put = [&](const char* suffix, std::vector<double>& per_lap) {
    std::sort(per_lap.begin(), per_lap.end());
    metrics_[prefix + suffix] =
        Metric{sorted_percentile(per_lap, 50.0), "ms", n,
               sorted_percentile(per_lap, 25.0), sorted_percentile(per_lap, 75.0)};
  };
  put("_p50_ms", p50);
  put("_p99_ms", p99);
  put("_p999_ms", p999);
}

void Report::gate(const std::string& name, bool pass, const std::string& detail) {
  gates_.push_back({name, pass, detail});
}

void Report::digest(const std::string& name, std::uint32_t crc) {
  digests_[name] = crc;
}

bool Report::gates_pass() const {
  for (const Gate& g : gates_)
    if (!g.pass) return false;
  return failed_ == 0;
}

std::string Report::json(const Options& opt) const {
  std::ostringstream o;
  o << "{\n  \"schema\": \"mcopt-perf-result/1\",\n"
    << "  \"workload\": " << quoted(opt.workload) << ",\n"
    << "  \"seed\": " << opt.seed << ",\n"
    << "  \"seconds\": " << number(opt.seconds) << ",\n"
    << "  \"traced\": " << (opt.traced ? "true" : "false") << ",\n"
    << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
    << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << quoted(cpu_model())
    << ", \"compiler\": " << quoted(MCOPT_PERF_COMPILER)
    << ", \"build_type\": " << quoted(MCOPT_PERF_BUILD_TYPE) << "},\n"
    << "  \"correct\": " << (gates_pass() ? "true" : "false") << ",\n"
    << "  \"attempted\": " << attempted_ << ",\n"
    << "  \"failed\": " << failed_ << ",\n  \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i)
    o << (i ? ",\n" : "\n") << "    {\"name\": " << quoted(gates_[i].name)
      << ", \"pass\": " << (gates_[i].pass ? "true" : "false")
      << ", \"detail\": " << quoted(gates_[i].detail) << "}";
  o << "\n  ],\n  \"digests\": {";
  bool first = true;
  for (const auto& [name, crc] : digests_) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08x", crc);
    o << (first ? "" : ", ") << quoted(name) << ": " << quoted(hex);
    first = false;
  }
  o << "},\n  \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "\n" : ",\n") << "    " << quoted(name)
      << ": {\"value\": " << number(m.value) << ", \"unit\": " << quoted(m.unit);
    if (m.n > 0) o << ", \"n\": " << m.n;
    if (m.q1 != 0.0 || m.q3 != 0.0)
      o << ", \"q1\": " << number(m.q1) << ", \"q3\": " << number(m.q3);
    o << "}";
    first = false;
  }
  o << "\n  }\n}\n";
  return o.str();
}

double peak_rss_mib() {
  // VmHWM, not getrusage(): ru_maxrss survives exec, so it would report the
  // launching process's footprint whenever that was larger (run.py's is).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

double triad_ns_per_elem(std::size_t n) {
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0), d(n, 0.5);
  const double secs = side_time(
      [&] { kernels::triad_local(a.data(), b.data(), c.data(), d.data(), n); });
  return secs * 1e9 / static_cast<double>(n);
}

double price_ns(const std::vector<runtime::exec::JobSpec>& shapes) {
  const runtime::exec::PricingModel pricing{{}};
  const double secs = side_time([&] {
    for (const runtime::exec::JobSpec& s : shapes) (void)pricing.price(s, {});
  });
  return secs * 1e9 / static_cast<double>(shapes.size());
}

double estimate_ns(const std::vector<runtime::exec::JobSpec>& shapes) {
  const runtime::exec::PricingModel pricing{{}};
  const double secs = side_time([&] {
    for (const runtime::exec::JobSpec& s : shapes)
      (void)pricing.estimate(s.kind, {});
  });
  return secs * 1e9 / static_cast<double>(shapes.size());
}

}  // namespace mcopt::perf
