#include "runtime/durable/state.h"

#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "runtime/durable/journal.h"

namespace mcopt::runtime::durable {
namespace {

using wire::put_f64;
using wire::put_u32;
using wire::put_u64;
using wire::Reader;

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
  ckpt.user[1] = image.has_attribution ? kStateFlagAttribution : 0;
  ckpt.sections.push_back(encode_core(image));
  ckpt.sections.push_back(encode_ledger(image));
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
  if (version != kStateImageVersion)
    return Result::failure("durable state: '" + path + "' has image version " +
                           std::to_string(version) + "; this build reads " +
                           std::to_string(kStateImageVersion));
  const std::uint64_t flags = ckpt.user[1];
  if ((flags & ~kStateFlagAttribution) != 0)
    return Result::failure("durable state: '" + path +
                           "' carries unknown section flags " +
                           std::to_string(flags & ~kStateFlagAttribution));
  const bool has_attr = (flags & kStateFlagAttribution) != 0;
  const std::size_t want_sections = has_attr ? 3u : 2u;
  if (ckpt.sections.size() != want_sections)
    return Result::failure("durable state: '" + path + "' has " +
                           std::to_string(ckpt.sections.size()) +
                           " sections, expected " +
                           std::to_string(want_sections));
  StateImage im;
  im.snapshot_id = ckpt.iteration;
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
  // Attribution bytes stay opaque here: obs::Attribution::restore() owns the
  // format and reports its own typed refusals when the caller feeds it.
  if (has_attr) im.attribution = ckpt.sections[2];
  return im;
}

}  // namespace mcopt::runtime::durable
