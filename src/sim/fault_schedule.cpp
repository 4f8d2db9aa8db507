#include "sim/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mcopt::sim {

bool FaultSchedule::has_relative() const noexcept {
  return std::any_of(intervals.begin(), intervals.end(),
                     [](const Interval& iv) { return iv.relative; });
}

bool FaultSchedule::has_flap() const noexcept {
  return std::any_of(intervals.begin(), intervals.end(),
                     [](const Interval& iv) { return iv.flap_period != 0; });
}

FaultSchedule FaultSchedule::resolved(arch::Cycles horizon) const {
  FaultSchedule out;
  out.intervals.reserve(intervals.size());
  for (const Interval& iv : intervals) {
    Interval r = iv;
    if (iv.relative) {
      r.relative = false;
      r.begin = static_cast<arch::Cycles>(
          std::llround(iv.begin_frac * static_cast<double>(horizon)));
      r.end = iv.end_frac < 0.0
                  ? kNever
                  : static_cast<arch::Cycles>(std::llround(
                        iv.end_frac * static_cast<double>(horizon)));
    }
    if (r.flap_period != 0) {
      // Expand the flap: the fault is active during the first half of each
      // period, so downstream consumers (chip, epochs, event_count, the
      // chaos replan budget) see the real transition timeline. An unbounded
      // flap end is clamped to the horizon (check() rejects it anyway).
      const arch::Cycles end = r.end == kNever ? horizon : r.end;
      const arch::Cycles half = std::max<arch::Cycles>(1, r.flap_period / 2);
      for (arch::Cycles b = r.begin; b < end; b += r.flap_period) {
        Interval off;
        off.fault = r.fault;
        off.begin = b;
        off.end = std::min<arch::Cycles>(b + half, end);
        out.intervals.push_back(std::move(off));
      }
      continue;
    }
    out.intervals.push_back(std::move(r));
  }
  return out;
}

FaultSchedule FaultSchedule::shifted(arch::Cycles offset) const {
  FaultSchedule out;
  for (const Interval& iv : intervals) {
    if (iv.end != kNever && iv.end <= offset) continue;  // already cleared
    Interval s = iv;
    s.begin = iv.begin > offset ? iv.begin - offset : 0;
    if (iv.end != kNever) s.end = iv.end - offset;
    out.intervals.push_back(std::move(s));
  }
  return out;
}

FaultSpec FaultSchedule::active_at(arch::Cycles cycle,
                                   const FaultSpec& baseline) const {
  FaultSpec active = baseline;
  for (const Interval& iv : intervals)
    if (cycle >= iv.begin && cycle < iv.end)
      active = FaultSpec::merged(active, iv.fault);
  return active;
}

std::vector<arch::Cycles> FaultSchedule::transitions() const {
  std::vector<arch::Cycles> cuts;
  for (const Interval& iv : intervals) {
    if (iv.begin > 0) cuts.push_back(iv.begin);
    if (iv.end != kNever) cuts.push_back(iv.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

std::size_t FaultSchedule::event_count() const noexcept {
  std::size_t events = 0;
  for (const Interval& iv : intervals) {
    if (iv.begin > 0) ++events;       // arrive (begin 0 is the initial state)
    if (iv.end != kNever) ++events;   // clear
  }
  return events;
}

std::vector<FaultSchedule::Epoch> FaultSchedule::epochs(
    arch::Cycles horizon, const FaultSpec& baseline) const {
  std::vector<arch::Cycles> cuts = transitions();
  if (horizon != kNever)
    cuts.erase(std::remove_if(cuts.begin(), cuts.end(),
                              [&](arch::Cycles c) { return c >= horizon; }),
               cuts.end());
  std::vector<Epoch> out;
  arch::Cycles begin = 0;
  for (arch::Cycles cut : cuts) {
    out.push_back({begin, cut, active_at(begin, baseline)});
    begin = cut;
  }
  out.push_back({begin, horizon, active_at(begin, baseline)});
  return out;
}

util::Status FaultSchedule::check(const arch::InterleaveSpec& spec,
                                  unsigned num_sockets) const {
  util::Status status;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const Interval& iv = intervals[i];
    const std::string tag = "FaultSchedule interval " + std::to_string(i);
    util::Status fault_status = iv.fault.check(spec, num_sockets);
    if (!fault_status.ok())
      status.note(tag + ": " + fault_status.error().message);
    if (iv.relative) {
      if (!(iv.begin_frac >= 0.0) || iv.begin_frac > 1.0)
        status.note(tag + ": percent begin must lie in [0, 100]");
      if (iv.end_frac >= 0.0 &&
          (iv.end_frac > 1.0 || iv.end_frac <= iv.begin_frac))
        status.note(tag + ": percent bounds must satisfy begin < end <= 100");
    } else if (iv.end != kNever && iv.end <= iv.begin) {
      status.note(tag + ": begin " + std::to_string(iv.begin) +
                  " must precede end " + std::to_string(iv.end));
    }
    if (iv.flap_period != 0) {
      const bool pure_sock_off =
          iv.fault.offline_sockets.size() == 1 &&
          iv.fault.offline_controllers.empty() && iv.fault.derates.empty() &&
          iv.fault.slow_banks.empty() && iv.fault.stragglers.empty() &&
          iv.fault.flips.empty() && iv.fault.socket_derates.empty() &&
          iv.fault.link_faults.empty();
      if (!pure_sock_off)
        status.note(tag + ": flap requires exactly one sock:off fault");
      const bool bounded = iv.relative ? iv.end_frac >= 0.0 : iv.end != kNever;
      if (!bounded)
        status.note(tag + ": flap interval needs a bounded end "
                    "(an unbounded flap never resolves to a timeline)");
      if (num_sockets <= 1)
        status.note(tag + ": flap needs a multi-socket topology");
    }
  }
  // Overlapping intervals must never conspire to offline the whole chip.
  // Percent bounds have no common timeline until resolved; the resolved
  // schedule re-runs this check (SimConfig::check sees only resolved ones).
  if (!has_relative() && status.ok()) {
    for (const Epoch& e : epochs(kNever)) {
      // Starting from std::string("[") sidesteps a GCC 12 -Wrestrict false
      // positive (GCC PR105329) on a char literal + std::string temporary.
      const std::string span =
          std::string("[") + std::to_string(e.begin) + ", " +
          (e.end == kNever ? std::string("inf") : std::to_string(e.end)) + ")";
      if (e.faults.surviving_controllers(spec).empty()) {
        status.note(
            "FaultSchedule: overlapping intervals offline every controller "
            "during " + span);
        break;
      }
      if (num_sockets > 1 &&
          e.faults.surviving_sockets(num_sockets).empty()) {
        status.note(
            "FaultSchedule: overlapping intervals offline every socket "
            "during " + span);
        break;
      }
    }
  }
  return status;
}

namespace {

/// Percent bound printed with just enough digits that parse()'s
/// strtod-then-/100 recovers the stored fraction exactly. frac * 100.0
/// rounds, so the exact preimage of frac under /100 may sit a couple of ulps
/// away from the computed product — probe the neighborhood. Any fraction
/// that itself came out of parse() (p / 100 for some double p) has such a
/// preimage; for fractions that do not, the closest 17-digit form stands.
std::string format_percent(double frac) {
  char best[64];
  const double y = frac * 100.0;
  std::snprintf(best, sizeof best, "%.17g", y);
  const double lo = -std::numeric_limits<double>::infinity();
  const double hi = std::numeric_limits<double>::infinity();
  const double down1 = std::nextafter(y, lo);
  const double up1 = std::nextafter(y, hi);
  const double candidates[5] = {y, down1, up1, std::nextafter(down1, lo),
                                std::nextafter(up1, hi)};
  for (int precision = 1; precision <= 17; ++precision)
    for (double c : candidates) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*g", precision, c);
      if (std::strtod(buf, nullptr) / 100.0 == frac)
        return std::string(buf) + "%";
    }
  return std::string(best) + "%";
}

}  // namespace

std::string FaultSchedule::describe() const {
  if (intervals.empty()) return "empty";
  std::string out;
  for (const Interval& iv : intervals) {
    std::string stamp;
    if (iv.relative) {
      stamp = '@' + format_percent(iv.begin_frac);
      if (iv.end_frac >= 0.0) stamp += ".." + format_percent(iv.end_frac);
    } else if (iv.begin != 0 || iv.end != kNever) {
      stamp = '@' + std::to_string(iv.begin);
      if (iv.end != kNever) stamp += ".." + std::to_string(iv.end);
    }
    if (iv.flap_period != 0) {
      // Unexpanded flap prints as its own grammar item so describe() output
      // re-parses to the same (unexpanded) timeline.
      if (!out.empty()) out += ',';
      out += "sock" + std::to_string(iv.fault.offline_sockets.front()) +
             ":flap=" + std::to_string(iv.flap_period) + stamp;
      continue;
    }
    // A multi-fault interval must emit one item per constituent fault, each
    // carrying the stamp: "mc0:off mc1:off@5..9" does not re-parse, but
    // "mc0:off@5..9,mc1:off@5..9" does (and is the same timeline).
    for (const Interval& single : constant(iv.fault).intervals) {
      if (!out.empty()) out += ',';
      out += single.fault.describe() + stamp;
    }
  }
  return out.empty() ? "empty" : out;
}

FaultSchedule FaultSchedule::constant(const FaultSpec& spec) {
  FaultSchedule sched;
  const auto add = [&sched](FaultSpec single) {
    Interval iv;
    iv.fault = std::move(single);
    sched.intervals.push_back(std::move(iv));
  };
  for (unsigned c : spec.offline_controllers) {
    FaultSpec s;
    s.offline_controllers = {c};
    add(std::move(s));
  }
  for (const FaultSpec::Derate& d : spec.derates) {
    FaultSpec s;
    s.derates = {d};
    add(std::move(s));
  }
  for (const FaultSpec::SlowBank& b : spec.slow_banks) {
    FaultSpec s;
    s.slow_banks = {b};
    add(std::move(s));
  }
  for (const FaultSpec::Straggler& st : spec.stragglers) {
    FaultSpec s;
    s.stragglers = {st};
    add(std::move(s));
  }
  for (const FaultSpec::BitFlip& f : spec.flips) {
    FaultSpec s;
    s.flips = {f};
    add(std::move(s));
  }
  for (unsigned sock : spec.offline_sockets) {
    FaultSpec s;
    s.offline_sockets = {sock};
    add(std::move(s));
  }
  for (const FaultSpec::SocketDerate& d : spec.socket_derates) {
    FaultSpec s;
    s.socket_derates = {d};
    add(std::move(s));
  }
  for (const FaultSpec::LinkFault& l : spec.link_faults) {
    FaultSpec s;
    s.link_faults = {l};
    add(std::move(s));
  }
  return sched;
}

namespace {

struct Bound {
  double value = 0.0;   // cycles, or fraction in [0,1] when percent
  bool percent = false;
};

/// Parses one time bound: a strtod-able cycle count ("1e6") or a percent of
/// the run ("25%"). Bounds ride through double; 2^53 keeps the cycle cast
/// exact (mirrors FaultSpec::parse's cycle handling).
util::Expected<Bound> parse_bound(const std::string& text,
                                  const std::string& item) {
  using Result = util::Expected<Bound>;
  if (text.empty())
    return Result::failure("FaultSchedule: empty time bound in '" + item + "'");
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  Bound bound;
  if (end != nullptr && *end == '%' && *(end + 1) == '\0') {
    if (!(parsed >= 0.0) || parsed > 100.0)
      return Result::failure("FaultSchedule: percent bound in '" + item +
                             "' must lie in [0, 100]");
    bound.value = parsed / 100.0;
    bound.percent = true;
    return bound;
  }
  if (end == nullptr || *end != '\0')
    return Result::failure("FaultSchedule: malformed time bound in '" + item +
                           "'");
  constexpr double kMaxCycles = 9007199254740992.0;  // 2^53
  if (!(parsed >= 0.0 && parsed <= kMaxCycles))
    return Result::failure("FaultSchedule: cycle bound in '" + item +
                           "' must lie in [0, 2^53]");
  bound.value = parsed;
  return bound;
}

}  // namespace

util::Expected<FaultSchedule> FaultSchedule::parse(const std::string& text) {
  return parse(text, FaultLimits{});
}

util::Expected<FaultSchedule> FaultSchedule::parse(const std::string& text,
                                                   const FaultLimits& limits) {
  using Result = util::Expected<FaultSchedule>;
  FaultSchedule sched;
  for (const std::string& item : split_fault_items(text)) {
    const std::size_t at = item.find('@');
    const std::string fault_text = item.substr(0, at);

    Interval iv;
    // sock<i>:flap=<period> is schedule-level grammar (a FaultSpec has no
    // notion of time): intercept it before FaultSpec::parse.
    const std::size_t flap = fault_text.find(":flap=");
    if (flap != std::string::npos) {
      if (fault_text.compare(0, 4, "sock") != 0)
        return Result::failure("FaultSchedule: flap is socket-only in '" +
                               item + "'");
      char* idx_end = nullptr;
      const unsigned long sock =
          std::strtoul(fault_text.c_str() + 4, &idx_end, 10);
      if (idx_end != fault_text.c_str() + flap || flap == 4)
        return Result::failure("FaultSchedule: malformed socket index in '" +
                               item + "'");
      if (limits.num_sockets != 0 && sock >= limits.num_sockets)
        return Result::failure("FaultSchedule: socket " + std::to_string(sock) +
                               " out of range in '" + item + "'");
      const auto period = parse_bound(fault_text.substr(flap + 6), item);
      if (!period) return Result::failure(period.error().message);
      if (period.value().percent || period.value().value < 1.0)
        return Result::failure(
            "FaultSchedule: flap period in '" + item +
            "' must be a cycle count >= 1 (percent periods are not supported)");
      iv.fault.offline_sockets.push_back(static_cast<unsigned>(sock));
      iv.flap_period = static_cast<arch::Cycles>(period.value().value);
    } else {
      const auto spec = FaultSpec::parse(fault_text, limits);
      if (!spec) return Result::failure(spec.error().message);
      iv.fault = spec.value();
    }
    if (at != std::string::npos) {
      const std::string stamp = item.substr(at + 1);
      const std::size_t dots = stamp.find("..");
      const auto begin =
          parse_bound(stamp.substr(0, dots), item);
      if (!begin) return Result::failure(begin.error().message);
      util::Expected<Bound> end_bound = Bound{};
      const bool has_end = dots != std::string::npos;
      if (has_end) {
        end_bound = parse_bound(stamp.substr(dots + 2), item);
        if (!end_bound) return Result::failure(end_bound.error().message);
        if (begin.value().percent != end_bound.value().percent)
          return Result::failure(
              "FaultSchedule: mixed cycle/percent bounds in '" + item + "'");
      }
      if (begin.value().percent) {
        iv.relative = true;
        iv.begin_frac = begin.value().value;
        iv.end_frac = has_end ? end_bound.value().value : -1.0;
      } else {
        iv.begin = static_cast<arch::Cycles>(begin.value().value);
        iv.end = has_end ? static_cast<arch::Cycles>(end_bound.value().value)
                         : kNever;
      }
    }
    sched.intervals.push_back(std::move(iv));
  }
  return sched;
}

}  // namespace mcopt::sim
