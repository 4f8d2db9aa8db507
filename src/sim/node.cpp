#include "sim/node.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "arch/topology.h"

namespace mcopt::sim {

namespace {

SimConfig socket_config(const NodeConfig& cfg, unsigned socket) {
  SimConfig sc = cfg.sim;
  sc.numa.enabled = !cfg.node.single_socket();
  sc.numa.socket = socket;
  sc.numa.node = cfg.node;
  return sc;
}

/// CPUs in this process's affinity mask (at least 1).
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Process-wide fork-join pool the sockets of every Node run on. It is
/// created on the first run with two or more busy sockets and never
/// destroyed, so its helpers are never joined and everything they use stays
/// alive: a per-run thread would register a fresh obs::TraceRecorder ring
/// each time, and the recorder never recycles them.
class SocketPool {
 public:
  SocketPool(const SocketPool&) = delete;
  SocketPool& operator=(const SocketPool&) = delete;

  static SocketPool& instance() {
    static SocketPool* const pool = new SocketPool(
        std::min(affinity_cpus(), arch::NodeTopology::kMaxSockets) - 1);
    return *pool;
  }

  /// Runs body(i) for every i in [0, count) on the calling thread and the
  /// helpers, which claim indices from a shared counter; returns once all
  /// are done. body must not throw. A caller that finds the pool busy, or
  /// runs in a forked child (which has no helpers), runs every index itself.
  void run(unsigned count, const std::function<void(unsigned)>& body) {
    if (helpers_ == 0 || getpid() != pid_ ||
        busy_.exchange(true, std::memory_order_acquire)) {
      for (unsigned i = 0; i < count; ++i) body(i);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      pending_ = helpers_;
      ++generation_;
    }
    wake_.notify_all();
    drain(body, count);
    {
      // Every helper acknowledges every generation, so none can still be
      // reading this call's body once the wait returns.
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return pending_ == 0; });
      body_ = nullptr;
    }
    busy_.store(false, std::memory_order_release);
  }

 private:
  explicit SocketPool(unsigned helpers) : pid_(getpid()) {
    try {
      for (unsigned h = 0; h < helpers; ++h)
        threads_.emplace_back([this] { help(); });
    } catch (const std::system_error&) {
      // Out of threads: run with the helpers that did start.
    }
    helpers_ = static_cast<unsigned>(threads_.size());
  }

  void drain(const std::function<void(unsigned)>& body, unsigned count) {
    for (unsigned i = next_.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next_.fetch_add(1, std::memory_order_relaxed))
      body(i);
  }

  void help() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      const std::function<void(unsigned)>& body = *body_;
      const unsigned count = count_;
      lock.unlock();
      drain(body, count);
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  unsigned helpers_ = 0;
  const pid_t pid_;
  std::atomic<bool> busy_{false};
  std::atomic<unsigned> next_{0};
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // Guarded by mu_:
  std::uint64_t generation_ = 0;
  const std::function<void(unsigned)>* body_ = nullptr;
  unsigned count_ = 0;
  unsigned pending_ = 0;  ///< helpers yet to finish this generation
  std::vector<std::thread> threads_;  ///< last: they use every member above
};

/// Runs body(i) for i in [0, count): on the pool when two or more can run
/// concurrently, else on the calling thread (the pool is not created).
void run_sockets(unsigned count, const std::function<void(unsigned)>& body) {
  if (count < 2) {
    for (unsigned i = 0; i < count; ++i) body(i);
    return;
  }
  SocketPool::instance().run(count, body);
}

}  // namespace

util::Status NodeConfig::check() const {
  util::Status status = node.check();
  if (!status.ok()) return status;
  // The per-socket view carries every cross-layer constraint (fault classes
  // against num_sockets, connectivity, schedule epochs); socket 0's view is
  // representative since the sockets are identical.
  status.merge(socket_config(*this, 0).check());
  return status;
}

void NodeConfig::validate() const { check().throw_if_failed(); }

Node::Node(NodeConfig config) : cfg_(std::move(config)) {
  cfg_.validate();
}

NodeResult Node::run(std::vector<Workload>& workloads) {
  util::Expected<NodeResult> result = try_run(workloads);
  if (!result) throw std::runtime_error(result.error().message);
  return std::move(result.value());
}

util::Expected<NodeResult> Node::try_run(std::vector<Workload>& workloads) {
  const unsigned n = cfg_.node.num_sockets;
  if (workloads.size() != n)
    throw std::invalid_argument(
        "Node::run: expected one workload per socket (" + std::to_string(n) +
        "), got " + std::to_string(workloads.size()));

  std::vector<unsigned> busy;  // sockets with a workload, in socket order
  for (unsigned s = 0; s < n; ++s)
    if (!workloads[s].empty()) busy.push_back(s);

  // Each busy socket simulates its own Chip and writes only its own slot.
  struct SocketRun {
    std::optional<util::Expected<SimResult>> result;
    std::exception_ptr thrown;
  };
  std::vector<SocketRun> runs(busy.size());
  run_sockets(static_cast<unsigned>(busy.size()), [&](unsigned i) {
    const unsigned s = busy[i];
    try {
      const SimConfig sc = socket_config(cfg_, s);
      Chip chip(sc, arch::equidistant_placement(
                        static_cast<unsigned>(workloads[s].size()),
                        sc.topology));
      runs[i].result.emplace(chip.try_run(workloads[s]));
    } catch (...) {
      runs[i].thrown = std::current_exception();
    }
  });

  // Fold in socket order, so the result never depends on which thread ran
  // which socket: the lowest failing socket's exception or error wins.
  NodeResult result;
  result.sockets.resize(n);
  result.socket_utilization.assign(n, 0.0);
  result.clock_ghz = cfg_.sim.topology.clock_ghz;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    const unsigned s = busy[i];
    if (runs[i].thrown) std::rethrow_exception(runs[i].thrown);
    util::Expected<SimResult>& res = *runs[i].result;
    if (!res)
      return util::Expected<NodeResult>::failure(
          "socket " + std::to_string(s) + ": " + res.error().message);
    result.sockets[s] = std::move(res.value());
    const SimResult& sr = result.sockets[s];
    result.total_cycles = std::max(result.total_cycles, sr.total_cycles);
    result.mem_read_bytes += sr.mem_read_bytes;
    result.mem_write_bytes += sr.mem_write_bytes;
    result.remote_read_bytes += sr.remote_read_bytes;
    result.remote_write_bytes += sr.remote_write_bytes;
    result.degraded = result.degraded || sr.degraded;
  }
  if (result.total_cycles != 0) {
    for (unsigned s = 0; s < n; ++s) {
      const SimResult& sr = result.sockets[s];
      if (sr.mc.empty()) continue;
      arch::Cycles busy_cycles = 0;
      for (const McStats& mc : sr.mc) busy_cycles += mc.busy_cycles;
      result.socket_utilization[s] =
          static_cast<double>(busy_cycles) /
          (static_cast<double>(sr.mc.size()) *
           static_cast<double>(result.total_cycles));
    }
  }
  return result;
}

}  // namespace mcopt::sim
