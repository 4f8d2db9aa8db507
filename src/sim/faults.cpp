#include "sim/faults.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mcopt::sim {

bool FaultSpec::is_offline(unsigned controller) const noexcept {
  return std::find(offline_controllers.begin(), offline_controllers.end(),
                   controller) != offline_controllers.end();
}

double FaultSpec::derate_of(unsigned controller) const noexcept {
  double factor = 1.0;
  for (const Derate& d : derates)
    if (d.controller == controller) factor *= d.factor;
  return factor;
}

arch::Cycles FaultSpec::bank_extra(unsigned bank) const noexcept {
  arch::Cycles extra = 0;
  for (const SlowBank& b : slow_banks)
    if (b.bank == bank) extra += b.extra_busy;
  return extra;
}

arch::Cycles FaultSpec::straggle_of(unsigned thread) const noexcept {
  arch::Cycles extra = 0;
  for (const Straggler& s : stragglers)
    if (s.thread == thread) extra += s.extra_cycles;
  return extra;
}

double FaultSpec::flip_rate_of(unsigned controller) const noexcept {
  // Independent sources combine by inclusion-exclusion (p + r - p*r), which
  // — unlike 1 - prod(1 - r) — is exact for the common single-entry case
  // even at rates near machine epsilon.
  double p = 0.0;
  for (const BitFlip& f : flips)
    if (f.controller == controller) p += f.rate - p * f.rate;
  return p;
}

bool FaultSpec::is_socket_offline(unsigned socket) const noexcept {
  return std::find(offline_sockets.begin(), offline_sockets.end(), socket) !=
         offline_sockets.end();
}

double FaultSpec::socket_derate_of(unsigned socket) const noexcept {
  double factor = 1.0;
  for (const SocketDerate& d : socket_derates)
    if (d.socket == socket) factor *= d.factor;
  return factor;
}

bool FaultSpec::is_link_offline(unsigned i, unsigned j) const noexcept {
  for (const LinkFault& l : link_faults)
    if (l.offline && ((l.a == i && l.b == j) || (l.a == j && l.b == i)))
      return true;
  return false;
}

double FaultSpec::link_derate_of(unsigned i, unsigned j) const noexcept {
  double factor = 1.0;
  for (const LinkFault& l : link_faults)
    if (!l.offline && ((l.a == i && l.b == j) || (l.a == j && l.b == i)))
      factor *= l.factor;
  return factor;
}

std::vector<unsigned> FaultSpec::surviving_sockets(unsigned num_sockets) const {
  std::vector<unsigned> alive;
  for (unsigned s = 0; s < num_sockets; ++s)
    if (!is_socket_offline(s)) alive.push_back(s);
  return alive;
}

std::vector<unsigned> FaultSpec::socket_remap(unsigned num_sockets) const {
  const std::vector<unsigned> alive = surviving_sockets(num_sockets);
  std::vector<unsigned> remap(num_sockets);
  std::size_t next_survivor = 0;  // spread dead domains' load round-robin
  for (unsigned s = 0; s < num_sockets; ++s) {
    if (!is_socket_offline(s)) {
      remap[s] = s;
    } else {
      remap[s] = alive.at(next_survivor % alive.size());
      ++next_survivor;
    }
  }
  return remap;
}

std::vector<unsigned> FaultSpec::surviving_controllers(
    const arch::InterleaveSpec& spec) const {
  std::vector<unsigned> alive;
  for (unsigned c = 0; c < spec.num_controllers(); ++c)
    if (!is_offline(c)) alive.push_back(c);
  return alive;
}

std::vector<unsigned> FaultSpec::controller_remap(
    const arch::InterleaveSpec& spec) const {
  const std::vector<unsigned> alive = surviving_controllers(spec);
  std::vector<unsigned> remap(spec.num_controllers());
  std::size_t next_survivor = 0;  // spread dead controllers' load round-robin
  for (unsigned c = 0; c < spec.num_controllers(); ++c) {
    if (!is_offline(c)) {
      remap[c] = c;
    } else {
      remap[c] = alive.at(next_survivor % alive.size());
      ++next_survivor;
    }
  }
  return remap;
}

util::Status FaultSpec::check(const arch::InterleaveSpec& spec,
                              unsigned num_sockets) const {
  util::Status status;
  std::vector<unsigned> seen_off;
  for (unsigned c : offline_controllers) {
    if (c >= spec.num_controllers())
      status.note("FaultSpec: offline controller " + std::to_string(c) +
                  " out of range (chip has " +
                  std::to_string(spec.num_controllers()) + ")");
    if (std::find(seen_off.begin(), seen_off.end(), c) != seen_off.end())
      status.note("FaultSpec: controller " + std::to_string(c) +
                  " offlined more than once");
    else
      seen_off.push_back(c);
  }
  if (surviving_controllers(spec).empty())
    status.note("FaultSpec: at least one controller must survive");
  for (const Derate& d : derates) {
    if (d.controller >= spec.num_controllers())
      status.note("FaultSpec: derated controller " +
                  std::to_string(d.controller) + " out of range");
    if (!(d.factor > 0.0) || d.factor > 1.0)
      status.note("FaultSpec: derate factor " + std::to_string(d.factor) +
                  " must lie in (0, 1]");
    if (is_offline(d.controller))
      status.note("FaultSpec: controller " + std::to_string(d.controller) +
                  " is both offline and derated (dead beats slow; pick one)");
  }
  for (const SlowBank& b : slow_banks)
    if (b.bank >= spec.num_banks())
      status.note("FaultSpec: slow bank " + std::to_string(b.bank) +
                  " out of range (chip has " + std::to_string(spec.num_banks()) +
                  ")");
  for (const BitFlip& f : flips) {
    if (f.controller >= spec.num_controllers())
      status.note("FaultSpec: flipping controller " +
                  std::to_string(f.controller) + " out of range");
    if (!(f.rate >= 0.0) || f.rate > 1.0)
      status.note("FaultSpec: flip rate " + std::to_string(f.rate) +
                  " must lie in [0, 1]");
    if (is_offline(f.controller))
      status.note("FaultSpec: controller " + std::to_string(f.controller) +
                  " is both offline and flipping (a dead channel moves no "
                  "bits to corrupt; pick one)");
  }

  // Socket/link classes. With the default num_sockets == 1 any such fault is
  // invalid: a single-chip run cannot honor them and must say so rather than
  // silently simulating a healthy machine.
  const bool numa = num_sockets > 1;
  std::vector<unsigned> seen_sock_off;
  for (unsigned s : offline_sockets) {
    if (!numa)
      status.note("FaultSpec: sock" + std::to_string(s) +
                  ":off requires a multi-socket topology");
    else if (s >= num_sockets)
      status.note("FaultSpec: offline socket " + std::to_string(s) +
                  " out of range (node has " + std::to_string(num_sockets) +
                  ")");
    if (std::find(seen_sock_off.begin(), seen_sock_off.end(), s) !=
        seen_sock_off.end())
      status.note("FaultSpec: socket " + std::to_string(s) +
                  " offlined more than once");
    else
      seen_sock_off.push_back(s);
  }
  if (numa && surviving_sockets(num_sockets).empty())
    status.note("FaultSpec: at least one socket's memory must survive");
  for (const SocketDerate& d : socket_derates) {
    if (!numa)
      status.note("FaultSpec: sock" + std::to_string(d.socket) +
                  ":derate requires a multi-socket topology");
    else if (d.socket >= num_sockets)
      status.note("FaultSpec: derated socket " + std::to_string(d.socket) +
                  " out of range");
    if (!(d.factor > 0.0) || d.factor > 1.0)
      status.note("FaultSpec: socket derate factor " +
                  std::to_string(d.factor) + " must lie in (0, 1]");
    if (is_socket_offline(d.socket))
      status.note("FaultSpec: socket " + std::to_string(d.socket) +
                  " is both offline and derated (dead beats slow; pick one)");
  }
  for (const LinkFault& l : link_faults) {
    const std::string name =
        "link" + std::to_string(l.a) + "-" + std::to_string(l.b);
    if (!numa)
      status.note("FaultSpec: " + name +
                  " requires a multi-socket topology");
    else if (l.a >= num_sockets || l.b >= num_sockets)
      status.note("FaultSpec: " + name + " endpoint out of range (node has " +
                  std::to_string(num_sockets) + " sockets)");
    if (l.a == l.b)
      status.note("FaultSpec: " + name +
                  " connects a socket to itself (no such link)");
    if (!l.offline && (!(l.factor > 0.0) || l.factor > 1.0))
      status.note("FaultSpec: " + name + " derate factor " +
                  std::to_string(l.factor) + " must lie in (0, 1]");
    if (!l.offline && is_link_offline(l.a, l.b))
      status.note("FaultSpec: " + name +
                  " is both offline and derated (dead beats slow; pick one)");
  }
  return status;
}

FaultSpec FaultSpec::merged(const FaultSpec& a, const FaultSpec& b) {
  FaultSpec out;
  for (const FaultSpec* part : {&a, &b})
    for (unsigned c : part->offline_controllers)
      if (!out.is_offline(c)) out.offline_controllers.push_back(c);
  std::sort(out.offline_controllers.begin(), out.offline_controllers.end());
  for (const FaultSpec* part : {&a, &b}) {
    for (const Derate& d : part->derates)
      if (!out.is_offline(d.controller)) out.derates.push_back(d);
    for (const BitFlip& f : part->flips)
      if (!out.is_offline(f.controller)) out.flips.push_back(f);
    out.slow_banks.insert(out.slow_banks.end(), part->slow_banks.begin(),
                          part->slow_banks.end());
    out.stragglers.insert(out.stragglers.end(), part->stragglers.begin(),
                          part->stragglers.end());
  }
  // Socket classes mirror the controller rules one level up: offline sets
  // dedupe, dead beats slow.
  for (const FaultSpec* part : {&a, &b})
    for (unsigned s : part->offline_sockets)
      if (!out.is_socket_offline(s)) out.offline_sockets.push_back(s);
  std::sort(out.offline_sockets.begin(), out.offline_sockets.end());
  for (const FaultSpec* part : {&a, &b})
    for (const SocketDerate& d : part->socket_derates)
      if (!out.is_socket_offline(d.socket)) out.socket_derates.push_back(d);
  // Links: offline entries dedupe (unordered pair), derates on a dead link
  // are dropped, remaining derates concatenate (link_derate_of multiplies).
  for (const FaultSpec* part : {&a, &b})
    for (const LinkFault& l : part->link_faults)
      if (l.offline && !out.is_link_offline(l.a, l.b))
        out.link_faults.push_back(l);
  for (const FaultSpec* part : {&a, &b})
    for (const LinkFault& l : part->link_faults)
      if (!l.offline && !out.is_link_offline(l.a, l.b))
        out.link_faults.push_back(l);
  return out;
}

namespace {

/// Shortest decimal string that strtod's back to exactly `value`, so
/// describe() → parse() is lossless (the round-trip fuzz test leans on this;
/// a fixed "%.2f" silently truncated derates like 0.375).
std::string format_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace

std::string FaultSpec::describe() const {
  if (!any()) return "healthy";
  std::string out;
  const auto append = [&out](const std::string& item) {
    if (!out.empty()) out += ' ';
    out += item;
  };
  for (unsigned c : offline_controllers) append("mc" + std::to_string(c) + ":off");
  for (const Derate& d : derates)
    append("mc" + std::to_string(d.controller) +
           ":derate=" + format_double(d.factor));
  for (const BitFlip& f : flips)
    append("mc" + std::to_string(f.controller) +
           ":flip=" + format_double(f.rate));
  for (const SlowBank& b : slow_banks)
    append("bank" + std::to_string(b.bank) +
           ":slow=" + std::to_string(b.extra_busy));
  for (const Straggler& s : stragglers)
    append("strand" + std::to_string(s.thread) +
           ":lag=" + std::to_string(s.extra_cycles));
  for (unsigned s : offline_sockets)
    append("sock" + std::to_string(s) + ":off");
  for (const SocketDerate& d : socket_derates)
    append("sock" + std::to_string(d.socket) +
           ":derate=" + format_double(d.factor));
  for (const LinkFault& l : link_faults)
    append("link" + std::to_string(l.a) + "-" + std::to_string(l.b) +
           (l.offline ? std::string(":off")
                      : ":derate=" + format_double(l.factor)));
  return out;
}

std::vector<std::string> split_fault_items(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::string item = text.substr(start, comma - start);
    const auto lo = item.find_first_not_of(" \t");
    const auto hi = item.find_last_not_of(" \t");
    if (lo != std::string::npos) items.push_back(item.substr(lo, hi - lo + 1));
    start = comma + 1;
  }
  return items;
}

namespace {

/// Parses the digits after a known prefix; false on junk.
bool parse_index(const std::string& text, const char* prefix, unsigned& index,
                 std::size_t& consumed) {
  const std::string p(prefix);
  if (text.rfind(p, 0) != 0) return false;
  std::size_t pos = p.size();
  if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos])))
    return false;
  unsigned long value = 0;
  while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
    value = value * 10 + static_cast<unsigned long>(text[pos] - '0');
    if (value > 1u << 20) return false;  // absurd index: reject early
    ++pos;
  }
  index = static_cast<unsigned>(value);
  consumed = pos;
  return true;
}

}  // namespace

util::Expected<FaultSpec> FaultSpec::parse(const std::string& text) {
  return parse(text, FaultLimits{});
}

util::Expected<FaultSpec> FaultSpec::parse(const std::string& text,
                                           const FaultLimits& limits) {
  using Result = util::Expected<FaultSpec>;
  FaultSpec spec;
  // Parse-time index validation (a limit of 0 = unchecked): failing here
  // names the offending item, which apply-time check() cannot do.
  const auto check_limit = [](unsigned index, unsigned limit, const char* kind,
                              const std::string& item) -> util::Status {
    util::Status status;
    if (limit != 0 && index >= limit)
      status.note("FaultSpec: " + std::string(kind) + " " +
                  std::to_string(index) + " in '" + item +
                  "' out of range (topology has " + std::to_string(limit) +
                  ")");
    return status;
  };
  for (const std::string& item : split_fault_items(text)) {
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos)
      return Result::failure("FaultSpec: '" + item +
                             "' is missing ':' (expected e.g. mc0:off)");
    const std::string target = item.substr(0, colon);
    const std::string action = item.substr(colon + 1);

    unsigned index = 0;
    std::size_t consumed = 0;
    const auto numeric_arg = [&](const std::string& key) -> util::Expected<double> {
      const std::string prefix = key + "=";
      if (action.rfind(prefix, 0) != 0)
        return util::Expected<double>::failure(
            "FaultSpec: '" + item + "' expects " + key + "=<value>");
      const std::string value = action.substr(prefix.size());
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || end == nullptr || *end != '\0')
        return util::Expected<double>::failure("FaultSpec: malformed value in '" +
                                               item + "'");
      return parsed;
    };

    // Cycle counts ride through strtod; bound them before the uint64 cast
    // (a 1e30 or NaN straight into static_cast<Cycles> is UB). 2^53 keeps
    // the double exactly representable and comfortably inside uint64.
    const auto cycle_arg = [&](const std::string& key) -> util::Expected<arch::Cycles> {
      const auto parsed = numeric_arg(key);
      if (!parsed) return util::Expected<arch::Cycles>::failure(parsed.error().message);
      constexpr double kMaxCycles = 9007199254740992.0;  // 2^53
      if (!(parsed.value() >= 0.0 && parsed.value() <= kMaxCycles))
        return util::Expected<arch::Cycles>::failure(
            "FaultSpec: " + key + " cycles in '" + item +
            "' must lie in [0, 2^53]");
      return static_cast<arch::Cycles>(parsed.value());
    };

    if (parse_index(target, "mc", index, consumed) && consumed == target.size()) {
      const util::Status in_range =
          check_limit(index, limits.num_controllers, "controller", item);
      if (!in_range.ok()) return Result::failure(in_range.error().message);
      if (action == "off") {
        spec.offline_controllers.push_back(index);
      } else if (action.rfind("derate=", 0) == 0) {
        const auto factor = numeric_arg("derate");
        if (!factor) return Result::failure(factor.error().message);
        spec.derates.push_back({index, factor.value()});
      } else if (action.rfind("flip=", 0) == 0) {
        const auto rate = numeric_arg("flip");
        if (!rate) return Result::failure(rate.error().message);
        if (!(rate.value() >= 0.0 && rate.value() <= 1.0))
          return Result::failure("FaultSpec: flip rate in '" + item +
                                 "' must lie in [0, 1]");
        spec.flips.push_back({index, rate.value()});
      } else {
        return Result::failure("FaultSpec: unknown controller action in '" +
                               item + "' (use off, derate=<f> or flip=<r>)");
      }
    } else if (parse_index(target, "bank", index, consumed) &&
               consumed == target.size()) {
      const util::Status in_range =
          check_limit(index, limits.num_banks, "bank", item);
      if (!in_range.ok()) return Result::failure(in_range.error().message);
      const auto cycles = cycle_arg("slow");
      if (!cycles) return Result::failure(cycles.error().message);
      spec.slow_banks.push_back({index, cycles.value()});
    } else if (parse_index(target, "strand", index, consumed) &&
               consumed == target.size()) {
      const util::Status in_range =
          check_limit(index, limits.num_threads, "strand", item);
      if (!in_range.ok()) return Result::failure(in_range.error().message);
      const auto cycles = cycle_arg("lag");
      if (!cycles) return Result::failure(cycles.error().message);
      spec.stragglers.push_back({index, cycles.value()});
    } else if (parse_index(target, "sock", index, consumed) &&
               consumed == target.size()) {
      const util::Status in_range =
          check_limit(index, limits.num_sockets, "socket", item);
      if (!in_range.ok()) return Result::failure(in_range.error().message);
      if (action == "off") {
        spec.offline_sockets.push_back(index);
      } else if (action.rfind("derate=", 0) == 0) {
        const auto factor = numeric_arg("derate");
        if (!factor) return Result::failure(factor.error().message);
        spec.socket_derates.push_back({index, factor.value()});
      } else {
        return Result::failure("FaultSpec: unknown socket action in '" + item +
                               "' (use off or derate=<f>)");
      }
    } else if (parse_index(target, "link", index, consumed) &&
               consumed < target.size() && target[consumed] == '-') {
      unsigned other = 0;
      std::size_t tail = 0;
      const std::string rest = target.substr(consumed + 1);
      // Reuse the digit parser on the second endpoint ("" prefix).
      if (!parse_index(rest, "", other, tail) || tail != rest.size())
        return Result::failure("FaultSpec: malformed link pair in '" + item +
                               "' (use link<i>-<j>)");
      for (unsigned endpoint : {index, other}) {
        const util::Status in_range =
            check_limit(endpoint, limits.num_sockets, "link endpoint", item);
        if (!in_range.ok()) return Result::failure(in_range.error().message);
      }
      if (action == "off") {
        spec.link_faults.push_back({index, other, 1.0, /*offline=*/true});
      } else if (action.rfind("derate=", 0) == 0) {
        const auto factor = numeric_arg("derate");
        if (!factor) return Result::failure(factor.error().message);
        spec.link_faults.push_back({index, other, factor.value(),
                                    /*offline=*/false});
      } else {
        return Result::failure("FaultSpec: unknown link action in '" + item +
                               "' (use off or derate=<f>)");
      }
    } else {
      return Result::failure(
          "FaultSpec: unknown target in '" + item +
          "' (use mc<i>, bank<i>, strand<t>, sock<i> or link<i>-<j>)");
    }
  }
  return spec;
}

}  // namespace mcopt::sim
