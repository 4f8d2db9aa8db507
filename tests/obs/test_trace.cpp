#include "obs/trace.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"

namespace mcopt::obs {
namespace {

/// Every test starts from a clean recorder with its own ring capacity and
/// leaves it disabled (the recorder is process-global; later tests and other
/// suites in this binary must not see leftover events).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().reset();
  }
  void TearDown() override {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().reset();
  }

  static std::string temp_path(const char* stem) {
    return testing::TempDir() + stem;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  static std::size_t count_occurrences(const std::string& hay,
                                       const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
      ++n;
    return n;
  }
};

TEST_F(TraceTest, DisabledRecorderIsANoop) {
  ASSERT_FALSE(TraceRecorder::instance().enabled());
  TraceRecorder::instance().record(Phase::kInstant, "noop", "test", 1, 2);
  { TraceSpan span("noop.span", "test"); }
  trace_instant("noop.instant", "test");
  EXPECT_EQ(TraceRecorder::instance().recorded(), 0u);
  EXPECT_EQ(TraceRecorder::instance().threads_seen(), 0u);
  EXPECT_TRUE(TraceRecorder::instance().snapshot().empty());
}

TEST_F(TraceTest, EventsRoundTripThroughSnapshot) {
  TraceRecorder::instance().enable(64);
  trace_instant("alpha", "test", 7, 9);
  trace_counter("queue.depth", "test", 42);
  { TraceSpan span("beta", "test", 1, 2); }

  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "alpha");
  EXPECT_STREQ(events[0].cat, "test");
  EXPECT_EQ(events[0].phase, Phase::kInstant);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 9u);
  EXPECT_EQ(events[1].phase, Phase::kCounter);
  EXPECT_EQ(events[1].a, 42u);
  EXPECT_EQ(events[2].phase, Phase::kBegin);
  EXPECT_EQ(events[3].phase, Phase::kEnd);
  EXPECT_STREQ(events[3].name, "beta");
  // Snapshot is timestamp-sorted and per-thread timestamps are monotone.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDrops) {
  TraceRecorder::instance().enable(8);
  constexpr std::uint64_t kTotal = 50;
  for (std::uint64_t i = 0; i < kTotal; ++i)
    trace_instant("wrap", "test", i);

  EXPECT_EQ(TraceRecorder::instance().recorded(), kTotal);
  EXPECT_EQ(TraceRecorder::instance().dropped(), kTotal - 8);

  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Flight-recorder semantics: the survivors are exactly the newest events.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].a, kTotal - 8 + i);
}

TEST_F(TraceTest, ResetDiscardsEventsAndAppliesNewCapacity) {
  TraceRecorder::instance().enable(8);
  for (int i = 0; i < 20; ++i) trace_instant("before", "test");
  EXPECT_GT(TraceRecorder::instance().dropped(), 0u);

  TraceRecorder::instance().reset();
  EXPECT_EQ(TraceRecorder::instance().recorded(), 0u);
  EXPECT_EQ(TraceRecorder::instance().dropped(), 0u);
  EXPECT_EQ(TraceRecorder::instance().threads_seen(), 0u);

  TraceRecorder::instance().enable(64);
  for (int i = 0; i < 20; ++i) trace_instant("after", "test");
  EXPECT_EQ(TraceRecorder::instance().recorded(), 20u);
  EXPECT_EQ(TraceRecorder::instance().dropped(), 0u);
}

TEST_F(TraceTest, ConcurrentWritersLoseNothingWithinCapacity) {
  TraceRecorder::instance().enable(1 << 12);
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const TraceSpan span("worker.op", "test", t, i);
        trace_instant("worker.tick", "test", t, i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent readers must never tear: snapshot while writers are live.
  for (int i = 0; i < 50; ++i) {
    const auto mid = TraceRecorder::instance().snapshot();
    for (const auto& ev : mid) EXPECT_NE(ev.name, nullptr);
  }
  for (auto& w : writers) w.join();

  // 3 events per iteration (B, i, E), plus possibly this thread's.
  const std::uint64_t expected = kThreads * kPerThread * 3;
  EXPECT_GE(TraceRecorder::instance().recorded(), expected);
  EXPECT_EQ(TraceRecorder::instance().dropped(), 0u);
  EXPECT_GE(TraceRecorder::instance().threads_seen(), kThreads);

  // Per-writer: every span is committed and well-nested.
  const auto events = TraceRecorder::instance().snapshot();
  std::map<std::uint32_t, std::uint64_t> begins, ends;
  for (const auto& ev : events) {
    if (std::string(ev.name) != "worker.op") continue;
    if (ev.phase == Phase::kBegin) ++begins[ev.tid];
    if (ev.phase == Phase::kEnd) ++ends[ev.tid];
  }
  std::uint64_t total_begins = 0;
  for (const auto& [tid, n] : begins) {
    EXPECT_EQ(n, ends[tid]) << "unbalanced spans on tid " << tid;
    total_begins += n;
  }
  EXPECT_EQ(total_begins, kThreads * kPerThread);
}

TEST_F(TraceTest, ChromeTraceExportIsBalancedAndWellFormed) {
  TraceRecorder::instance().enable(256);
  {
    const TraceSpan outer("outer", "test", 1);
    const TraceSpan inner("inner", "test", 2);
    trace_instant("tick", "test");
  }
  util::log_info("hello \"trace\"");  // mirror: exercises JSON escaping

  const std::string path = temp_path("trace_export.json");
  ASSERT_TRUE(TraceRecorder::instance().write_chrome_trace(path).ok());

  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(body.find("\\\"trace\\\""), std::string::npos);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"B\""),
            count_occurrences(body, "\"ph\":\"E\""));
  // Braces and brackets balance — the file parses as JSON.
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

TEST_F(TraceTest, OpenSpansGetSyntheticEnds) {
  TraceRecorder::instance().enable(256);
  // A span begun but not ended (snapshot taken mid-flight).
  TraceRecorder::instance().record(Phase::kBegin, "open.span", "test");
  trace_instant("later", "test");

  const std::string path = temp_path("trace_open.json");
  ASSERT_TRUE(TraceRecorder::instance().write_chrome_trace(path).ok());
  const std::string body = slurp(path);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"E\""), 1u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, OrphanEndsAreDropped) {
  TraceRecorder::instance().enable(256);
  // An E whose B was overwritten at the ring edge must not poison the file.
  TraceRecorder::instance().record(Phase::kEnd, "orphan", "test");
  const std::string path = temp_path("trace_orphan.json");
  ASSERT_TRUE(TraceRecorder::instance().write_chrome_trace(path).ok());
  const std::string body = slurp(path);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"E\""), 0u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FlightDumpKeepsOnlyTheTailWindow) {
  TraceRecorder::instance().enable(1 << 10);
  for (int i = 0; i < 100; ++i) trace_instant("early", "test");
  for (int i = 0; i < 8; ++i) trace_instant("late", "test");

  const std::string path = temp_path("trace_flight.json");
  ASSERT_TRUE(TraceRecorder::instance().write_flight_dump(path, 8).ok());
  const std::string body = slurp(path);
  EXPECT_EQ(count_occurrences(body, "\"late\""), 8u);
  EXPECT_EQ(count_occurrences(body, "\"early\""), 0u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, LogLinesMirrorIntoTheTrace) {
  TraceRecorder::instance().enable(256);
  util::log_warn("controller wobble", {util::kv("mc", 2)});
  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "log.warn");
  EXPECT_STREQ(events[0].cat, "log");
  // Inline messages truncate to the slot budget but keep the prefix.
  EXPECT_EQ(events[0].msg.substr(0, 10), "controller");
  TraceRecorder::instance().disable();
  // After disable the mirror is torn down: logging no longer records.
  util::log_warn("not recorded");
  EXPECT_EQ(TraceRecorder::instance().snapshot().size(), 1u);
}

TEST_F(TraceTest, NextTraceIdIsNonzeroAndUnique) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10000; ++i) ids.push_back(next_trace_id());
  for (const std::uint64_t id : ids) ASSERT_NE(id, 0u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "duplicate trace ids minted within one process";
}

TEST_F(TraceTest, ForkedChildMintsIdsDisjointFromTheParent) {
  // The pid is cached and refreshed in the forked child: the child inherits
  // the salt and the counter, so only its own pid keeps its ids apart from
  // the ones the parent mints after the fork.
  constexpr int kIds = 1000;
  for (int i = 0; i < kIds; ++i) ASSERT_NE(next_trace_id(), 0u);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0) << std::strerror(errno);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    ::close(fds[0]);
    std::array<std::uint64_t, kIds> ids{};
    for (std::uint64_t& id : ids) id = next_trace_id();
    const char* p = reinterpret_cast<const char*>(ids.data());
    std::size_t left = sizeof(ids);
    while (left > 0) {
      const ssize_t n = ::write(fds[1], p, left);
      if (n <= 0) ::_exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::vector<std::uint64_t> parent(kIds);
  for (std::uint64_t& id : parent) id = next_trace_id();

  std::vector<std::uint64_t> child(kIds);
  char* p = reinterpret_cast<char*>(child.data());
  std::size_t got = 0;
  const std::size_t want = child.size() * sizeof(std::uint64_t);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (got < want && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(fds[0], p + got, want - got);
    if (n <= 0) break;  // EOF: the child exited early
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  if (got < want) ::kill(pid, SIGKILL);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(got, want) << "child sent " << got << " of " << want << " bytes";
  ASSERT_TRUE(WIFEXITED(status)) << "child status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::sort(parent.begin(), parent.end());
  std::sort(child.begin(), child.end());
  std::vector<std::uint64_t> shared;
  std::set_intersection(parent.begin(), parent.end(), child.begin(),
                        child.end(), std::back_inserter(shared));
  EXPECT_TRUE(shared.empty())
      << shared.size() << " trace ids minted by both parent and child";
}

TEST_F(TraceTest, FlowEventsExportAsChromeFlowPhases) {
  TraceRecorder::instance().enable(256);
  const std::uint64_t flow = next_trace_id();
  trace_flow_start("job.flow.submit", "causal", flow, 7);
  trace_flow_step("job.flow.admit", "causal", flow, 3);
  trace_flow_end("job.flow.complete", "causal", flow, 3);

  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, Phase::kFlowStart);
  EXPECT_EQ(events[0].a, flow);
  EXPECT_EQ(events[0].b, 7u);
  EXPECT_EQ(events[2].phase, Phase::kFlowEnd);

  const std::string path = temp_path("trace_flow.json");
  ASSERT_TRUE(TraceRecorder::instance().write_chrome_trace(path).ok());
  const std::string body = slurp(path);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"t\""), 1u);
  EXPECT_EQ(count_occurrences(body, "\"ph\":\"f\""), 1u);
  // The flow id binds the chain: hex "id" field on every flow event, and
  // the terminating 'f' carries bp:"e" so viewers draw the final arrow.
  char idbuf[32];
  std::snprintf(idbuf, sizeof idbuf, "\"id\":\"0x%llx\"",
                static_cast<unsigned long long>(flow));
  EXPECT_EQ(count_occurrences(body, idbuf), 3u) << body;
  EXPECT_EQ(count_occurrences(body, "\"bp\":\"e\""), 1u);
  // Args survive as full-precision decimals (obs_query parses them as u64).
  EXPECT_NE(body.find("\"b\":7"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, SeqlockRetriesAreCountedAndResetClearsThem) {
  TraceRecorder::instance().enable(64);
  // Single-threaded snapshots never observe a torn slot.
  trace_instant("quiet", "test");
  (void)TraceRecorder::instance().snapshot();
  EXPECT_EQ(TraceRecorder::instance().seqlock_retries(), 0u);

  // Hammer one ring from a writer while snapshotting: any retries the
  // reader takes must be visible in the counter (zero is also legal — the
  // counter only must never go backwards and must reset cleanly).
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire))
      trace_instant("hot", "test", i++);
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    (void)TraceRecorder::instance().snapshot();
    const std::uint64_t now = TraceRecorder::instance().seqlock_retries();
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  TraceRecorder::instance().reset();
  EXPECT_EQ(TraceRecorder::instance().seqlock_retries(), 0u);
}

TEST_F(TraceTest, DumpToFdIsWritableAndNonEmpty) {
  TraceRecorder::instance().enable(256);
  trace_instant("fd.event", "test", 123, 456);
  const std::string path = temp_path("trace_fd.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(TraceRecorder::instance().dump_to_fd(fileno(f)), 0);
  std::fclose(f);
  const std::string body = slurp(path);
  EXPECT_NE(body.find("fd.event"), std::string::npos);
  EXPECT_NE(body.find("a=123"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mcopt::obs
