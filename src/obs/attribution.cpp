#include "obs/attribution.h"

#include <array>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/csv.h"
#include "util/wire.h"

namespace mcopt::obs {
namespace {

constexpr std::uint32_t kSnapshotVersion = 1;

using util::wire::put_u32;
using util::wire::put_u64;

/// Registry counters mirroring the grand totals, so attribution shows up in
/// the Prometheus/JSON exports without a separate scrape of the ledger.
struct AttrMetrics {
  Counter& served_bytes;
  Counter& shed_events;
  Counter& scrub_bytes;
  Counter& probe_bytes;
  Counter& migration_bytes;

  static AttrMetrics& instance() {
    static AttrMetrics m{
        MetricsRegistry::instance().counter(
            "mcopt_attr_served_bytes_total",
            "bytes served, attributed to (tenant, socket, controller)"),
        MetricsRegistry::instance().counter(
            "mcopt_attr_shed_events_total",
            "shed verdicts attributed to (tenant, shed reason)"),
        MetricsRegistry::instance().counter(
            "mcopt_attr_scrub_bytes_total", "bytes re-verified by scrubs"),
        MetricsRegistry::instance().counter(
            "mcopt_attr_probe_bytes_total", "bytes moved by canary probes"),
        MetricsRegistry::instance().counter(
            "mcopt_attr_migration_bytes_total",
            "bytes copied by shard migrations"),
    };
    return m;
  }
};

void mirror_to_registry(Charge charge, std::uint64_t bytes,
                        std::uint64_t count) {
  AttrMetrics& m = AttrMetrics::instance();
  switch (charge) {
    case Charge::kServed: m.served_bytes.inc(bytes); break;
    case Charge::kShed: m.shed_events.inc(count); break;
    case Charge::kScrub: m.scrub_bytes.inc(bytes); break;
    case Charge::kProbe: m.probe_bytes.inc(bytes); break;
    case Charge::kMigration: m.migration_bytes.inc(bytes); break;
  }
}

}  // namespace

const char* charge_name(Charge c) noexcept {
  switch (c) {
    case Charge::kServed: return "served";
    case Charge::kShed: return "shed";
    case Charge::kScrub: return "scrub";
    case Charge::kProbe: return "probe";
    case Charge::kMigration: return "migration";
  }
  return "?";
}

Attribution& Attribution::instance() noexcept {
  static Attribution ledger;
  return ledger;
}

void Attribution::set_controllers_per_socket(unsigned n) noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  if (n > 0) controllers_per_socket_ = n;
}

std::int32_t Attribution::socket_of(std::int32_t controller) const noexcept {
  if (controller < 0) return -1;
  return controller / static_cast<std::int32_t>(controllers_per_socket_);
}

void Attribution::charge(std::uint32_t tenant, std::int32_t controller,
                         Charge charge, std::uint32_t reason,
                         std::uint64_t bytes, std::uint64_t count) {
  mirror_to_registry(charge, bytes, count);
  const std::lock_guard<std::mutex> lock(mu_);
  AttributionKey key{tenant, socket_of(controller), controller, charge,
                     reason};
  AttributionCell& cell = cells_[key];
  cell.key = key;
  cell.bytes += bytes;
  cell.count += count;
}

void Attribution::charge_spread(std::uint32_t tenant,
                                const std::vector<unsigned>& controllers,
                                Charge kind, std::uint32_t reason,
                                std::uint64_t bytes) {
  if (controllers.empty()) {
    charge(tenant, -1, kind, reason, bytes);
    return;
  }
  const std::uint64_t n = controllers.size();
  const std::uint64_t base = bytes / n;
  const std::uint64_t extra = bytes % n;
  for (std::uint64_t i = 0; i < n; ++i)
    charge(tenant, static_cast<std::int32_t>(controllers[i]), kind, reason,
           base + (i < extra ? 1 : 0), i == 0 ? 1 : 0);
}

void Attribution::charge_mask(std::uint32_t tenant, std::uint32_t mask,
                              Charge kind, std::uint32_t reason,
                              std::uint64_t bytes) {
  std::vector<unsigned> controllers;
  for (unsigned i = 0; i < 32; ++i)
    if ((mask >> i) & 1u) controllers.push_back(i);
  charge_spread(tenant, controllers, kind, reason, bytes);
}

std::vector<AttributionCell> Attribution::cells() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<AttributionCell> out;
  out.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) out.push_back(cell);
  return out;
}

std::uint64_t Attribution::tenant_bytes(std::uint32_t tenant,
                                        Charge charge) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, cell] : cells_)
    if (key.tenant == tenant && key.charge == charge) total += cell.bytes;
  return total;
}

std::uint64_t Attribution::tenant_count(std::uint32_t tenant,
                                        Charge charge) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, cell] : cells_)
    if (key.tenant == tenant && key.charge == charge) total += cell.count;
  return total;
}

std::string Attribution::json() const {
  const std::vector<AttributionCell> all = cells();
  // Per-tenant rollups and grand totals, computed from the cells so the
  // document is internally consistent by construction.
  std::map<std::uint32_t, std::array<std::uint64_t, 2>> tenants;  // b, n
  std::map<Charge, std::array<std::uint64_t, 2>> totals;
  for (const AttributionCell& c : all) {
    totals[c.key.charge][0] += c.bytes;
    totals[c.key.charge][1] += c.count;
    if (c.key.charge == Charge::kServed) {
      tenants[c.key.tenant][0] += c.bytes;
    } else if (c.key.charge == Charge::kShed) {
      tenants[c.key.tenant][1] += c.count;
    }
  }
  std::string out = "{\"cells\":[";
  char buf[192];
  bool first = true;
  for (const AttributionCell& c : all) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"tenant\":%u,\"socket\":%d,\"controller\":%d,"
                  "\"charge\":\"%s\",\"reason\":%u,\"bytes\":%llu,"
                  "\"count\":%llu}",
                  first ? "" : ",", c.key.tenant, c.key.socket,
                  c.key.controller, charge_name(c.key.charge), c.key.reason,
                  static_cast<unsigned long long>(c.bytes),
                  static_cast<unsigned long long>(c.count));
    out += buf;
    first = false;
  }
  out += "],\"tenants\":[";
  first = true;
  for (const auto& [tenant, bn] : tenants) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"tenant\":%u,\"served_bytes\":%llu,\"sheds\":%llu}",
                  first ? "" : ",", tenant,
                  static_cast<unsigned long long>(bn[0]),
                  static_cast<unsigned long long>(bn[1]));
    out += buf;
    first = false;
  }
  out += "],\"totals\":{";
  first = true;
  for (const auto& [charge, bn] : totals) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"bytes\":%llu,\"count\":%llu}",
                  first ? "" : ",", charge_name(charge),
                  static_cast<unsigned long long>(bn[0]),
                  static_cast<unsigned long long>(bn[1]));
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

util::Status Attribution::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return util::Status::failure("attribution: cannot write '" + path + "'");
  const std::string doc = json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !ok)
    return util::Status::failure("attribution: write failed for '" + path +
                                 "'");
  return util::Status{};
}

util::Status Attribution::write_csv(const std::string& path) const {
  try {
    util::CsvWriter csv(path, {"tenant", "socket", "controller", "charge",
                               "reason", "bytes", "count"});
    for (const AttributionCell& c : cells()) {
      csv.add_row({std::to_string(c.key.tenant), std::to_string(c.key.socket),
                   std::to_string(c.key.controller),
                   charge_name(c.key.charge), std::to_string(c.key.reason),
                   std::to_string(c.bytes), std::to_string(c.count)});
    }
    return csv.close();
  } catch (const std::exception& e) {
    return util::Status::failure(std::string("attribution csv: ") + e.what());
  }
}

std::vector<std::uint8_t> Attribution::encode() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint8_t> out;
  put_u32(out, kSnapshotVersion);
  put_u32(out, controllers_per_socket_);
  put_u64(out, cells_.size());
  for (const auto& [key, cell] : cells_) {
    put_u32(out, key.tenant);
    put_u32(out, static_cast<std::uint32_t>(key.socket));
    put_u32(out, static_cast<std::uint32_t>(key.controller));
    put_u32(out, static_cast<std::uint32_t>(key.charge));
    put_u32(out, key.reason);
    put_u64(out, cell.bytes);
    put_u64(out, cell.count);
  }
  return out;
}

util::Status Attribution::restore(const std::vector<std::uint8_t>& bytes) {
  util::wire::Reader r{bytes.data(), bytes.size()};
  const std::uint32_t version = r.u32();
  const std::uint32_t per_socket = r.u32();
  const std::uint64_t n = r.u64();
  if (!r.ok)
    return util::Status::failure("attribution snapshot: truncated header");
  if (version != kSnapshotVersion)
    return util::Status::failure("attribution snapshot: version " +
                                 std::to_string(version) + " unsupported");
  if (per_socket == 0)
    return util::Status::failure(
        "attribution snapshot: zero controllers per socket");
  std::map<AttributionKey, AttributionCell> cells;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t tenant = r.u32();
    const std::uint32_t socket = r.u32();
    const std::uint32_t controller = r.u32();
    const std::uint32_t charge = r.u32();
    const std::uint32_t reason = r.u32();
    const std::uint64_t b = r.u64();
    const std::uint64_t c = r.u64();
    if (!r.ok)
      return util::Status::failure("attribution snapshot: truncated cell " +
                                   std::to_string(i));
    if (charge > static_cast<std::uint32_t>(Charge::kMigration))
      return util::Status::failure("attribution snapshot: bad charge kind " +
                                   std::to_string(charge));
    AttributionKey key{tenant, static_cast<std::int32_t>(socket),
                       static_cast<std::int32_t>(controller),
                       static_cast<Charge>(charge), reason};
    cells[key] = AttributionCell{key, b, c};
  }
  if (!r.done())
    return util::Status::failure("attribution snapshot: trailing bytes");
  const std::lock_guard<std::mutex> lock(mu_);
  controllers_per_socket_ = per_socket;
  cells_ = std::move(cells);
  return util::Status{};
}

void Attribution::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
}

}  // namespace mcopt::obs
