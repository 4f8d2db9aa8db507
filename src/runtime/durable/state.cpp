#include "runtime/durable/state.h"

#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "runtime/durable/journal.h"

namespace mcopt::runtime::durable {
namespace {

using wire::put_f64;
using wire::put_str;
using wire::put_u32;
using wire::put_u64;
using wire::Reader;

// --- FaultSpec -------------------------------------------------------------
// Field-by-field binary, NOT describe()/parse(): the belief must round-trip
// bit-identically (derate factors are doubles feeding analytic pricing).

void put_fault_spec(std::vector<std::uint8_t>& out, const sim::FaultSpec& f) {
  put_u32(out, static_cast<std::uint32_t>(f.offline_controllers.size()));
  for (unsigned c : f.offline_controllers) put_u32(out, c);
  put_u32(out, static_cast<std::uint32_t>(f.derates.size()));
  for (const auto& d : f.derates) {
    put_u32(out, d.controller);
    put_f64(out, d.factor);
  }
  put_u32(out, static_cast<std::uint32_t>(f.slow_banks.size()));
  for (const auto& b : f.slow_banks) {
    put_u32(out, b.bank);
    put_u64(out, b.extra_busy);
  }
  put_u32(out, static_cast<std::uint32_t>(f.stragglers.size()));
  for (const auto& s : f.stragglers) {
    put_u32(out, s.thread);
    put_u64(out, s.extra_cycles);
  }
  put_u32(out, static_cast<std::uint32_t>(f.flips.size()));
  for (const auto& fl : f.flips) {
    put_u32(out, fl.controller);
    put_f64(out, fl.rate);
  }
  put_u32(out, static_cast<std::uint32_t>(f.offline_sockets.size()));
  for (unsigned s : f.offline_sockets) put_u32(out, s);
  put_u32(out, static_cast<std::uint32_t>(f.socket_derates.size()));
  for (const auto& d : f.socket_derates) {
    put_u32(out, d.socket);
    put_f64(out, d.factor);
  }
  put_u32(out, static_cast<std::uint32_t>(f.link_faults.size()));
  for (const auto& l : f.link_faults) {
    put_u32(out, l.a);
    put_u32(out, l.b);
    put_f64(out, l.factor);
    put_u32(out, l.offline ? 1 : 0);
  }
}

sim::FaultSpec get_fault_spec(Reader& r) {
  sim::FaultSpec f;
  const std::uint32_t n_off = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_off; ++i)
    f.offline_controllers.push_back(r.u32());
  const std::uint32_t n_der = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_der; ++i) {
    sim::FaultSpec::Derate d;
    d.controller = r.u32();
    d.factor = r.f64();
    f.derates.push_back(d);
  }
  const std::uint32_t n_banks = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_banks; ++i) {
    sim::FaultSpec::SlowBank b;
    b.bank = r.u32();
    b.extra_busy = r.u64();
    f.slow_banks.push_back(b);
  }
  const std::uint32_t n_strag = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_strag; ++i) {
    sim::FaultSpec::Straggler s;
    s.thread = r.u32();
    s.extra_cycles = r.u64();
    f.stragglers.push_back(s);
  }
  const std::uint32_t n_flips = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_flips; ++i) {
    sim::FaultSpec::BitFlip fl;
    fl.controller = r.u32();
    fl.rate = r.f64();
    f.flips.push_back(fl);
  }
  const std::uint32_t n_soff = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_soff; ++i)
    f.offline_sockets.push_back(r.u32());
  const std::uint32_t n_sder = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_sder; ++i) {
    sim::FaultSpec::SocketDerate d;
    d.socket = r.u32();
    d.factor = r.f64();
    f.socket_derates.push_back(d);
  }
  const std::uint32_t n_links = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_links; ++i) {
    sim::FaultSpec::LinkFault l;
    l.a = r.u32();
    l.b = r.u32();
    l.factor = r.f64();
    l.offline = r.u32() != 0;
    f.link_faults.push_back(l);
  }
  return f;
}

// --- Backoff / CircuitBreaker ---------------------------------------------

void put_backoff(std::vector<std::uint8_t>& out,
                 const util::Backoff::Snapshot& s) {
  put_f64(out, s.current);
  put_u32(out, s.retries);
  put_u64(out, s.ready_at);
  for (std::uint64_t w : s.rng) put_u64(out, w);
}

util::Backoff::Snapshot get_backoff(Reader& r) {
  util::Backoff::Snapshot s;
  s.current = r.f64();
  s.retries = r.u32();
  s.ready_at = r.u64();
  for (std::uint64_t& w : s.rng) w = r.u64();
  return s;
}

void put_breaker(std::vector<std::uint8_t>& out,
                 const util::CircuitBreaker::Snapshot& s) {
  put_backoff(out, s.backoff);
  put_u32(out, s.consecutive_failures);
  put_u32(out, s.state);
}

util::CircuitBreaker::Snapshot get_breaker(Reader& r) {
  util::CircuitBreaker::Snapshot s;
  s.backoff = get_backoff(r);
  s.consecutive_failures = r.u32();
  s.state = static_cast<std::uint8_t>(r.u32());
  return s;
}

// --- sections --------------------------------------------------------------

std::vector<std::uint8_t> encode_core(const StateImage& im) {
  std::vector<std::uint8_t> out;
  put_u64(out, im.covered_sequence);
  put_u64(out, im.max_submission_id);
  put_u64(out, im.door.door_clock);
  put_u32(out, static_cast<std::uint32_t>(im.door.tenants.size()));
  for (const service::DoorTenantState& t : im.door.tenants) {
    const service::TenantCounters& c = t.counters;
    put_u64(out, c.submitted);
    put_u64(out, c.throttled);
    put_u64(out, c.breaker_rejected);
    put_u64(out, c.forwarded);
    put_u64(out, c.accepted);
    put_u64(out, c.offered_bytes);
    put_u64(out, c.door_shed_bytes);
    put_u64(out, c.forwarded_bytes);
    put_u64(out, c.breaker_opens);
    put_f64(out, t.quota_level_bytes);
    put_u64(out, t.last_refill);
    put_breaker(out, t.breaker);
  }
  put_u64(out, im.clocks.arrival);
  put_u64(out, im.clocks.service_tail);
  put_u64(out, im.clocks.admit_tail);
  return out;
}

util::Status decode_core(const std::vector<std::uint8_t>& bytes,
                         StateImage& im) {
  Reader r{bytes.data(), bytes.size()};
  im.covered_sequence = r.u64();
  im.max_submission_id = r.u64();
  im.door.door_clock = r.u64();
  const std::uint32_t n_tenants = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n_tenants; ++i) {
    service::DoorTenantState t;
    service::TenantCounters& c = t.counters;
    c.submitted = r.u64();
    c.throttled = r.u64();
    c.breaker_rejected = r.u64();
    c.forwarded = r.u64();
    c.accepted = r.u64();
    c.offered_bytes = r.u64();
    c.door_shed_bytes = r.u64();
    c.forwarded_bytes = r.u64();
    c.breaker_opens = r.u64();
    t.quota_level_bytes = r.f64();
    t.last_refill = r.u64();
    t.breaker = get_breaker(r);
    im.door.tenants.push_back(t);
  }
  im.clocks.arrival = r.u64();
  im.clocks.service_tail = r.u64();
  im.clocks.admit_tail = r.u64();
  if (!r.done())
    return util::Status::failure(
        "durable state: core section is malformed (length/field mismatch)");
  return util::Status{};
}

std::vector<std::uint8_t> encode_ledger(const StateImage& im) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(im.ledger.size()));
  for (const TenantLedger& l : im.ledger) {
    put_u64(out, l.completed);
    put_u64(out, l.served_bytes);
    put_u64(out, l.sheds);
  }
  return out;
}

util::Status decode_ledger(const std::vector<std::uint8_t>& bytes,
                           StateImage& im) {
  Reader r{bytes.data(), bytes.size()};
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n; ++i) {
    TenantLedger l;
    l.completed = r.u64();
    l.served_bytes = r.u64();
    l.sheds = r.u64();
    im.ledger.push_back(l);
  }
  if (!r.done())
    return util::Status::failure(
        "durable state: ledger section is malformed (length/field mismatch)");
  return util::Status{};
}

std::vector<std::uint8_t> encode_node_supervisor(
    const NodeSupervisor::Snapshot& s) {
  std::vector<std::uint8_t> out;
  put_fault_spec(out, s.planned_against);
  put_fault_spec(out, s.pending_diag);
  // Image v2 carries the pending diagnosis's describe() string: derived
  // here, skipped on read.
  put_str(out, s.pending_count != 0 ? s.pending_diag.describe() : "");
  put_u32(out, s.pending_count);
  put_u32(out, s.quiet_count);
  put_u32(out, s.replans);
  put_u32(out, s.suppressed);
  put_backoff(out, s.backoff);
  put_u32(out, static_cast<std::uint32_t>(s.gates.size()));
  for (const auto& g : s.gates) put_breaker(out, g);
  for (unsigned v : s.ramp_left) put_u32(out, v);
  for (double v : s.ramp_factor) put_f64(out, v);
  put_u32(out, s.probes);
  put_u32(out, s.probe_failures);
  put_u32(out, s.recoveries);
  put_u32(out, s.readmissions);
  return out;
}

util::Status decode_node_supervisor(const std::vector<std::uint8_t>& bytes,
                                    NodeSupervisor::Snapshot& s) {
  Reader r{bytes.data(), bytes.size()};
  s.planned_against = get_fault_spec(r);
  s.pending_diag = get_fault_spec(r);
  (void)r.str();
  s.pending_count = r.u32();
  s.quiet_count = r.u32();
  s.replans = r.u32();
  s.suppressed = r.u32();
  s.backoff = get_backoff(r);
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; r.ok && i < n; ++i)
    s.gates.push_back(get_breaker(r));
  for (std::uint32_t i = 0; r.ok && i < n; ++i)
    s.ramp_left.push_back(r.u32());
  for (std::uint32_t i = 0; r.ok && i < n; ++i)
    s.ramp_factor.push_back(r.f64());
  s.probes = r.u32();
  s.probe_failures = r.u32();
  s.recoveries = r.u32();
  s.readmissions = r.u32();
  if (!r.done())
    return util::Status::failure(
        "durable state: node-supervisor section is malformed "
        "(length/field mismatch)");
  return util::Status{};
}

}  // namespace

util::Status save_state(const std::string& path, const StateImage& image) {
  const obs::TraceSpan span("state.save", "journal", image.snapshot_id,
                            image.covered_sequence);
  if (image.ledger.size() != image.door.tenants.size())
    return util::Status::failure(
        "durable state: ledger covers " + std::to_string(image.ledger.size()) +
        " tenants, door has " + std::to_string(image.door.tenants.size()));
  Checkpoint ckpt;
  ckpt.kind = kDurableStateCheckpoint;
  ckpt.iteration = image.snapshot_id;
  ckpt.user[0] = kStateImageVersion;
  std::uint64_t flags = 0;
  if (image.has_node_supervisor) flags |= kStateFlagNodeSupervisor;
  if (image.has_attribution) flags |= kStateFlagAttribution;
  ckpt.user[1] = flags;
  ckpt.sections.push_back(encode_core(image));
  ckpt.sections.push_back(encode_ledger(image));
  if (image.has_node_supervisor)
    ckpt.sections.push_back(encode_node_supervisor(image.node_supervisor));
  if (image.has_attribution) ckpt.sections.push_back(image.attribution);
  return save_checkpoint(path, ckpt);
}

util::Expected<StateImage> load_state(const std::string& path) {
  using Result = util::Expected<StateImage>;
  const obs::TraceSpan span("state.load", "journal");
  auto loaded = load_checkpoint(path);
  if (!loaded) return Result::failure(loaded.error().message);
  const Checkpoint& ckpt = loaded.value();
  if (ckpt.kind != kDurableStateCheckpoint)
    return Result::failure("durable state: '" + path +
                           "' is not a durable-state snapshot (kind " +
                           std::to_string(ckpt.kind) + ")");
  const std::uint64_t version = ckpt.user[0];
  if (version < kStateImageMinVersion || version > kStateImageVersion)
    return Result::failure("durable state: '" + path + "' has image version " +
                           std::to_string(version) + "; this build reads " +
                           std::to_string(kStateImageMinVersion) + ".." +
                           std::to_string(kStateImageVersion));
  // v1 images used user[1] as a has-node-supervisor boolean; v2 made it a
  // section-flags bitmask. A v1 "1" decodes identically under the mask.
  const std::uint64_t flags = ckpt.user[1];
  const std::uint64_t known_flags =
      version >= 2 ? (kStateFlagNodeSupervisor | kStateFlagAttribution)
                   : kStateFlagNodeSupervisor;
  if ((flags & ~known_flags) != 0)
    return Result::failure("durable state: '" + path +
                           "' carries unknown section flags " +
                           std::to_string(flags & ~known_flags));
  const bool has_sup = (flags & kStateFlagNodeSupervisor) != 0;
  const bool has_attr = (flags & kStateFlagAttribution) != 0;
  const std::size_t want_sections =
      2u + (has_sup ? 1u : 0u) + (has_attr ? 1u : 0u);
  if (ckpt.sections.size() != want_sections)
    return Result::failure("durable state: '" + path + "' has " +
                           std::to_string(ckpt.sections.size()) +
                           " sections, expected " +
                           std::to_string(want_sections));
  StateImage im;
  im.snapshot_id = ckpt.iteration;
  im.has_node_supervisor = has_sup;
  im.has_attribution = has_attr;
  if (const util::Status s = decode_core(ckpt.sections[0], im); !s.ok())
    return Result::failure(s.error().message);
  if (const util::Status s = decode_ledger(ckpt.sections[1], im); !s.ok())
    return Result::failure(s.error().message);
  if (im.ledger.size() != im.door.tenants.size())
    return Result::failure(
        "durable state: '" + path + "' ledger covers " +
        std::to_string(im.ledger.size()) + " tenants, door section has " +
        std::to_string(im.door.tenants.size()));
  std::size_t next = 2;
  if (has_sup) {
    if (const util::Status s =
            decode_node_supervisor(ckpt.sections[next++], im.node_supervisor);
        !s.ok())
      return Result::failure(s.error().message);
  }
  // Attribution bytes stay opaque here: obs::Attribution::restore() owns the
  // format and reports its own typed refusals when the caller feeds it.
  if (has_attr) im.attribution = ckpt.sections[next++];
  return im;
}

}  // namespace mcopt::runtime::durable
