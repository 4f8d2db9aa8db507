#include "obs/trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#ifdef _WIN32
#include <process.h>
#else
#include <csignal>
#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>
#endif

#include "util/log.h"

namespace mcopt::obs {
namespace {

/// One ring slot: 11 atomic words. Every field is a std::atomic written
/// with release stores between the seqlock's odd/even sequence stores, so a
/// concurrent reader can never tear a value or race (TSan-clean by
/// construction). Slot k of event index i carries seq == 2*i + 2 when
/// committed; an odd seq marks an in-flight write.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> name{0};
  std::atomic<std::uint64_t> cat{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  /// phase in bits 0..7, inline-message length in bits 8..15.
  std::atomic<std::uint64_t> meta{0};
  std::array<std::atomic<std::uint64_t>, kEventMsgBytes / 8> msg{};
};

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t pack_words(const char* src, std::size_t len, std::size_t word) {
  std::uint64_t out = 0;
  const std::size_t lo = word * 8;
  for (std::size_t i = 0; i < 8 && lo + i < len; ++i)
    out |= static_cast<std::uint64_t>(static_cast<unsigned char>(src[lo + i]))
           << (8 * i);
  return out;
}

/// Protects buffer allocation/registration; never taken on the hot path.
std::mutex& alloc_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

struct TraceRecorder::ThreadBuffer {
  ThreadBuffer(std::uint32_t tid_in, std::size_t capacity)
      : tid(tid_in), mask(capacity - 1), slots(capacity) {}

  const std::uint32_t tid;
  const std::size_t mask;  ///< capacity - 1 (capacity is a power of two)
  std::atomic<std::uint64_t> head{0};  ///< events ever written to this ring
  std::vector<Slot> slots;
};

namespace {

/// Ownership of every buffer ever allocated, retired ones included.
/// Deliberately leaked (reachable via this static forever): the fatal-signal
/// handler and late-exiting threads may still be reading them at process
/// teardown, so they are never freed.
std::vector<std::unique_ptr<TraceRecorder::ThreadBuffer>>& owned_buffers() {
  static auto* owned =
      new std::vector<std::unique_ptr<TraceRecorder::ThreadBuffer>>();
  return *owned;
}

struct CachedBuffer {
  TraceRecorder::ThreadBuffer* buf = nullptr;
  std::uint64_t generation = ~std::uint64_t{0};
};
thread_local CachedBuffer t_cached;

void log_mirror(util::LogLevel level, std::uint64_t /*ts_ns*/,
                const char* text, std::size_t len) {
  const char* name = "log.info";
  switch (level) {
    case util::LogLevel::kDebug: name = "log.debug"; break;
    case util::LogLevel::kInfo: name = "log.info"; break;
    case util::LogLevel::kWarn: name = "log.warn"; break;
    case util::LogLevel::kError: name = "log.error"; break;
  }
  TraceRecorder::instance().record(Phase::kInstant, name, "log",
                                   static_cast<std::uint64_t>(level), 0, text,
                                   len);
}

#ifdef _WIN32
std::uint64_t current_pid() noexcept {
  static const auto pid = static_cast<std::uint64_t>(_getpid());
  return pid;  // no fork() on Windows: the pid never changes
}
#else
/// getpid() is a syscall on every call (glibc does not cache it), so the
/// pid is cached here. A pthread_atfork child handler refreshes it before
/// fork() returns in the child, so a child never mints with its parent's.
std::atomic<std::uint64_t> g_pid{0};

void refresh_pid() noexcept {
  g_pid.store(static_cast<std::uint64_t>(::getpid()),
              std::memory_order_relaxed);
}

std::uint64_t current_pid() noexcept {
  static const bool refreshed_on_fork = [] {
    refresh_pid();
    return ::pthread_atfork(nullptr, nullptr, refresh_pid) == 0;
  }();
  // Without the handler (registration failed: out of memory) the cache
  // could go stale in a child, so ask the kernel every time.
  return refreshed_on_fork ? g_pid.load(std::memory_order_relaxed)
                           : static_cast<std::uint64_t>(::getpid());
}
#endif

}  // namespace

std::uint64_t next_trace_id() noexcept {
  // High bits: a per-process salt folded from the trace epoch, so ids minted
  // before and after a kill-restart never collide (replayed jobs keep their
  // journaled pre-kill ids; fresh jobs draw from a new namespace). Low bits:
  // a plain counter. splitmix64 finalizer spreads the salt.
  static const std::uint64_t salt = [] {
    std::uint64_t z = trace_now_ns() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) << 20;
  }();
  static std::atomic<std::uint64_t> counter{0};
  // The pid is folded in per call, NOT into the salt: a fork()ed serving
  // child (the durability bench's kill harness) inherits both salt and
  // counter, and without its own pid its ids would collide with ids the
  // parent mints after the fork — poisoning merged-trace queries.
  const std::uint64_t pid = current_pid();
  const std::uint64_t id = (salt ^ (pid * 0xff51afd7ed558ccdULL)) +
                           counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return id == 0 ? 1 : id;
}

char phase_char(Phase p) noexcept {
  switch (p) {
    case Phase::kBegin: return 'B';
    case Phase::kEnd: return 'E';
    case Phase::kInstant: return 'i';
    case Phase::kCounter: return 'C';
    case Phase::kFlowStart: return 's';
    case Phase::kFlowStep: return 't';
    case Phase::kFlowEnd: return 'f';
  }
  return '?';
}

namespace {

bool is_flow_phase(Phase p) noexcept {
  return p == Phase::kFlowStart || p == Phase::kFlowStep ||
         p == Phase::kFlowEnd;
}

}  // namespace

std::uint64_t trace_now_ns() noexcept { return util::monotonic_ns(); }

TraceRecorder& TraceRecorder::instance() noexcept {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable(std::size_t capacity_per_thread) {
  capacity_.store(round_up_pow2(capacity_per_thread),
                  std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
  util::set_log_mirror(&log_mirror);
}

void TraceRecorder::disable() {
  util::set_log_mirror(nullptr);
  enabled_.store(false, std::memory_order_release);
}

TraceRecorder::ThreadBuffer* TraceRecorder::buffer_for_this_thread() noexcept {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_cached.buf != nullptr && t_cached.generation == gen)
    return t_cached.buf;
  try {
    const std::lock_guard<std::mutex> lock(alloc_mutex());
    const std::uint64_t cur_gen = generation_.load(std::memory_order_relaxed);
    const std::uint32_t i = registered_.load(std::memory_order_relaxed);
    if (i >= kMaxThreads) return nullptr;
    auto buf = std::make_unique<ThreadBuffer>(
        i, capacity_.load(std::memory_order_relaxed));
    registry_[i].store(buf.get(), std::memory_order_release);
    registered_.store(i + 1, std::memory_order_release);
    t_cached = {buf.get(), cur_gen};
    owned_buffers().push_back(std::move(buf));
    return t_cached.buf;
  } catch (...) {
    return nullptr;
  }
}

void TraceRecorder::record(Phase phase, const char* name, const char* cat,
                           std::uint64_t a, std::uint64_t b, const char* msg,
                           std::size_t msg_len) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  ThreadBuffer* buf = buffer_for_this_thread();
  if (buf == nullptr) {
    unregistered_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t idx = buf->head.load(std::memory_order_relaxed);
  Slot& s = buf->slots[idx & buf->mask];
  // Seqlock write protocol: mark in-flight (odd), write the payload with
  // release stores, publish (even, release). Each release payload store
  // orders the odd mark before it, so a reader whose acquire load sees any
  // payload word also sees the mark when it re-checks the sequence. A
  // reader that validates the same even sequence before and after its
  // payload loads can never observe a torn event. (No fences: TSan does not
  // model them, and on x86-64 release stores and acquire loads are plain
  // moves.)
  s.seq.store(2 * idx + 1, std::memory_order_relaxed);
  s.ts.store(trace_now_ns(), std::memory_order_release);
  s.name.store(reinterpret_cast<std::uintptr_t>(name),
               std::memory_order_release);
  s.cat.store(reinterpret_cast<std::uintptr_t>(cat), std::memory_order_release);
  s.a.store(a, std::memory_order_release);
  s.b.store(b, std::memory_order_release);
  const std::size_t len =
      msg == nullptr ? 0 : std::min(msg_len, kEventMsgBytes);
  s.meta.store(static_cast<std::uint64_t>(phase) |
                   (static_cast<std::uint64_t>(len) << 8),
               std::memory_order_release);
  for (std::size_t w = 0; w < s.msg.size(); ++w)
    s.msg[w].store(len == 0 ? 0 : pack_words(msg, len, w),
                   std::memory_order_release);
  s.seq.store(2 * idx + 2, std::memory_order_release);
  buf->head.store(idx + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  const std::uint32_t n = registered_.load(std::memory_order_acquire);
  for (std::uint32_t t = 0; t < n; ++t) {
    const ThreadBuffer* buf = registry_[t].load(std::memory_order_acquire);
    if (buf == nullptr) continue;
    const std::uint64_t head = buf->head.load(std::memory_order_acquire);
    const std::uint64_t capacity = buf->mask + 1;
    const std::uint64_t lo = head > capacity ? head - capacity : 0;
    for (std::uint64_t i = lo; i < head; ++i) {
      const Slot& s = buf->slots[i & buf->mask];
      const std::uint64_t want = 2 * i + 2;
      if (s.seq.load(std::memory_order_acquire) != want) {
        seqlock_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Acquire payload loads keep the re-check below after every one of
      // them (the fence-free half of the seqlock protocol in record()).
      TraceEvent ev;
      ev.ts_ns = s.ts.load(std::memory_order_acquire);
      ev.name = reinterpret_cast<const char*>(
          s.name.load(std::memory_order_acquire));
      ev.cat =
          reinterpret_cast<const char*>(s.cat.load(std::memory_order_acquire));
      ev.a = s.a.load(std::memory_order_acquire);
      ev.b = s.b.load(std::memory_order_acquire);
      const std::uint64_t meta = s.meta.load(std::memory_order_acquire);
      std::array<std::uint64_t, kEventMsgBytes / 8> words{};
      for (std::size_t w = 0; w < words.size(); ++w)
        words[w] = s.msg[w].load(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != want) {
        seqlock_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ev.phase = static_cast<Phase>(meta & 0xFF);
      const std::size_t len = static_cast<std::size_t>((meta >> 8) & 0xFF);
      ev.msg.reserve(len);
      for (std::size_t c = 0; c < len; ++c)
        ev.msg.push_back(
            static_cast<char>((words[c / 8] >> (8 * (c % 8))) & 0xFF));
      ev.tid = buf->tid;
      ev.seq = i;
      out.push_back(std::move(ev));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return out;
}

namespace {

void json_escape(std::string& out, const char* s, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Balances B/E pairs per thread so the exported JSON always validates:
/// an E whose B was overwritten at the ring edge is dropped, and a B whose
/// E has not happened yet (snapshot taken mid-span) gets a synthetic E at
/// the thread's last seen timestamp.
std::vector<TraceEvent> balance_spans(std::vector<TraceEvent> events) {
  std::vector<char> drop(events.size(), 0);
  std::vector<TraceEvent> synth;
  std::map<std::uint32_t, std::vector<std::size_t>> open_by_tid;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    last_ts[ev.tid] = std::max(last_ts[ev.tid], ev.ts_ns);
    if (ev.phase == Phase::kBegin) {
      open_by_tid[ev.tid].push_back(i);
    } else if (ev.phase == Phase::kEnd) {
      auto& stack = open_by_tid[ev.tid];
      if (stack.empty())
        drop[i] = 1;  // begin lost to ring wrap-around
      else
        stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : open_by_tid) {
    for (const std::size_t i : stack) {
      TraceEvent end = events[i];
      end.phase = Phase::kEnd;
      end.ts_ns = last_ts[tid];
      synth.push_back(std::move(end));
    }
  }
  std::vector<TraceEvent> out;
  out.reserve(events.size() + synth.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    if (!drop[i]) out.push_back(std::move(events[i]));
  for (TraceEvent& ev : synth) out.push_back(std::move(ev));
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return out;
}

util::Status export_chrome_json(const std::string& path,
                                const std::vector<TraceEvent>& events,
                                std::uint64_t recorded, std::uint64_t dropped,
                                std::uint32_t threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return util::Status::failure("trace: cannot write '" + path + "'");
  std::fprintf(f, "{\n\"traceEvents\": [\n");
  std::string line;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    line.clear();
    line += "{\"name\":\"";
    json_escape(line, ev.name, std::strlen(ev.name));
    line += "\",\"cat\":\"";
    json_escape(line, ev.cat, std::strlen(ev.cat));
    line += "\",\"ph\":\"";
    line += phase_char(ev.phase);
    line += "\"";
    if (ev.phase == Phase::kInstant) line += ",\"s\":\"t\"";
    char num[96];
    if (is_flow_phase(ev.phase)) {
      // The flow id is the 64-bit trace context; "bp":"e" binds the
      // terminating arrow to the enclosing slice like Chrome expects.
      std::snprintf(num, sizeof num, ",\"id\":\"0x%llx\"",
                    static_cast<unsigned long long>(ev.a));
      line += num;
      if (ev.phase == Phase::kFlowEnd) line += ",\"bp\":\"e\"";
    }
    // Chrome trace ts is in microseconds; keep nanosecond precision.
    std::snprintf(num, sizeof num, ",\"ts\":%llu.%03llu,\"pid\":1,\"tid\":%u",
                  static_cast<unsigned long long>(ev.ts_ns / 1000),
                  static_cast<unsigned long long>(ev.ts_ns % 1000), ev.tid);
    line += num;
    if (ev.phase == Phase::kCounter) {
      std::snprintf(num, sizeof num, ",\"args\":{\"value\":%llu}",
                    static_cast<unsigned long long>(ev.a));
      line += num;
    } else {
      std::snprintf(num, sizeof num, ",\"args\":{\"a\":%llu,\"b\":%llu",
                    static_cast<unsigned long long>(ev.a),
                    static_cast<unsigned long long>(ev.b));
      line += num;
      if (!ev.msg.empty()) {
        line += ",\"msg\":\"";
        json_escape(line, ev.msg.data(), ev.msg.size());
        line += "\"";
      }
      line += "}";
    }
    line += "}";
    if (i + 1 < events.size()) line += ",";
    line += "\n";
    std::fputs(line.c_str(), f);
  }
  std::fprintf(f,
               "],\n\"displayTimeUnit\": \"ms\",\n"
               "\"otherData\": {\"recorded\": %llu, \"dropped\": %llu, "
               "\"threads\": %u}\n}\n",
               static_cast<unsigned long long>(recorded),
               static_cast<unsigned long long>(dropped), threads);
  if (std::fclose(f) != 0)
    return util::Status::failure("trace: cannot close '" + path + "'");
  return util::Status{};
}

}  // namespace

util::Status TraceRecorder::write_chrome_trace(const std::string& path) const {
  return export_chrome_json(path, balance_spans(snapshot()), recorded(),
                            dropped(), threads_seen());
}

util::Status TraceRecorder::write_flight_dump(const std::string& path,
                                              std::size_t last_n) const {
  std::vector<TraceEvent> events = snapshot();
  // Keep only the trailing last_n events per thread (the post-mortem
  // window); snapshot() order is globally ts-sorted, so count from the back.
  std::map<std::uint32_t, std::size_t> kept;
  std::vector<TraceEvent> tail;
  for (auto it = events.rbegin(); it != events.rend(); ++it)
    if (kept[it->tid]++ < last_n) tail.push_back(std::move(*it));
  std::reverse(tail.begin(), tail.end());
  return export_chrome_json(path, balance_spans(std::move(tail)), recorded(),
                            dropped(), threads_seen());
}

namespace {

#ifndef _WIN32

void append_raw(char* buf, std::size_t& pos, std::size_t cap, const char* s) {
  while (*s != '\0' && pos + 1 < cap) buf[pos++] = *s++;
}

void append_u64(char* buf, std::size_t& pos, std::size_t cap,
                std::uint64_t v) {
  char digits[24];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n != 0 && pos + 1 < cap) buf[pos++] = digits[--n];
}

int write_all(int fd, const char* buf, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    off += static_cast<std::size_t>(n);
  }
  return 0;
}

#endif  // !_WIN32

}  // namespace

int TraceRecorder::dump_to_fd(int fd) const noexcept {
#ifdef _WIN32
  (void)fd;
  return -1;
#else
  // Async-signal-constrained: fixed stack buffers, atomic loads, write(2)
  // only. Torn or overwritten slots are skipped exactly like in snapshot().
  char line[512];
  const std::uint32_t n = registered_.load(std::memory_order_acquire);
  for (std::uint32_t t = 0; t < n; ++t) {
    const ThreadBuffer* buf = registry_[t].load(std::memory_order_acquire);
    if (buf == nullptr) continue;
    const std::uint64_t head = buf->head.load(std::memory_order_acquire);
    const std::uint64_t window =
        std::min<std::uint64_t>(buf->mask + 1, kFlightWindow);
    const std::uint64_t lo = head > window ? head - window : 0;
    for (std::uint64_t i = lo; i < head; ++i) {
      const Slot& s = buf->slots[i & buf->mask];
      const std::uint64_t want = 2 * i + 2;
      if (s.seq.load(std::memory_order_acquire) != want) {
        seqlock_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t ts = s.ts.load(std::memory_order_acquire);
      const char* name =
          reinterpret_cast<const char*>(s.name.load(std::memory_order_acquire));
      const char* cat =
          reinterpret_cast<const char*>(s.cat.load(std::memory_order_acquire));
      const std::uint64_t a = s.a.load(std::memory_order_acquire);
      const std::uint64_t b = s.b.load(std::memory_order_acquire);
      const std::uint64_t meta = s.meta.load(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != want) {
        seqlock_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::size_t pos = 0;
      append_raw(line, pos, sizeof line, "tid=");
      append_u64(line, pos, sizeof line, buf->tid);
      append_raw(line, pos, sizeof line, " seq=");
      append_u64(line, pos, sizeof line, i);
      append_raw(line, pos, sizeof line, " ts_ns=");
      append_u64(line, pos, sizeof line, ts);
      append_raw(line, pos, sizeof line, " ph=");
      const char ph[2] = {phase_char(static_cast<Phase>(meta & 0xFF)), '\0'};
      append_raw(line, pos, sizeof line, ph);
      append_raw(line, pos, sizeof line, " name=");
      append_raw(line, pos, sizeof line, name == nullptr ? "?" : name);
      append_raw(line, pos, sizeof line, " cat=");
      append_raw(line, pos, sizeof line, cat == nullptr ? "?" : cat);
      append_raw(line, pos, sizeof line, " a=");
      append_u64(line, pos, sizeof line, a);
      append_raw(line, pos, sizeof line, " b=");
      append_u64(line, pos, sizeof line, b);
      if (pos + 1 < sizeof line) line[pos++] = '\n';
      if (write_all(fd, line, pos) != 0) return -1;
    }
  }
  return 0;
#endif
}

std::uint64_t TraceRecorder::recorded() const noexcept {
  std::uint64_t total = 0;
  const std::uint32_t n = registered_.load(std::memory_order_acquire);
  for (std::uint32_t t = 0; t < n; ++t) {
    const ThreadBuffer* buf = registry_[t].load(std::memory_order_acquire);
    if (buf != nullptr) total += buf->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TraceRecorder::dropped() const noexcept {
  std::uint64_t total = unregistered_drops_.load(std::memory_order_relaxed);
  const std::uint32_t n = registered_.load(std::memory_order_acquire);
  for (std::uint32_t t = 0; t < n; ++t) {
    const ThreadBuffer* buf = registry_[t].load(std::memory_order_acquire);
    if (buf == nullptr) continue;
    const std::uint64_t head = buf->head.load(std::memory_order_relaxed);
    const std::uint64_t capacity = buf->mask + 1;
    if (head > capacity) total += head - capacity;
  }
  return total;
}

std::uint32_t TraceRecorder::threads_seen() const noexcept {
  return registered_.load(std::memory_order_acquire);
}

std::uint64_t TraceRecorder::seqlock_retries() const noexcept {
  return seqlock_retries_.load(std::memory_order_relaxed);
}

void TraceRecorder::reset() {
  const std::lock_guard<std::mutex> lock(alloc_mutex());
  registered_.store(0, std::memory_order_release);
  unregistered_drops_.store(0, std::memory_order_relaxed);
  seqlock_retries_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

#ifndef _WIN32
namespace {

char g_flight_path[1024] = {0};

void flight_signal_handler(int sig) {
  const int fd =
      ::open(g_flight_path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd >= 0) {
    (void)TraceRecorder::instance().dump_to_fd(fd);
    ::close(fd);
  }
  // SA_RESETHAND restored the default disposition; re-raise to die with the
  // original signal (so CI still sees the crash).
  ::raise(sig);
}

}  // namespace

util::Status install_flight_recorder(const std::string& path) {
  if (path.empty())
    return util::Status::failure("flight recorder: empty dump path");
  if (path.size() + 1 > sizeof g_flight_path)
    return util::Status::failure("flight recorder: dump path too long");
  std::memcpy(g_flight_path, path.c_str(), path.size() + 1);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &flight_signal_handler;
  sa.sa_flags = static_cast<int>(SA_RESETHAND);
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
    if (::sigaction(sig, &sa, nullptr) != 0)
      return util::Status::failure(
          "flight recorder: sigaction failed for signal " +
          std::to_string(sig));
  return util::Status{};
}
#else
util::Status install_flight_recorder(const std::string&) {
  return util::Status::failure(
      "flight recorder: not supported on this platform");
}
#endif

}  // namespace mcopt::obs
