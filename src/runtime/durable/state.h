#pragma once
// Durable state snapshot of the service runtime.
//
// The journal (runtime/durable/journal.h) is the history; this is the
// periodic compaction of that history into a restorable image, so a restart
// replays only the records after the snapshot instead of the whole life of
// the service. The image carries everything a fresh process cannot
// re-derive from code + config:
//
//   * the service door's state — tenant counters, token-bucket levels,
//     circuit-breaker holds, the door clock — so replayed submissions get
//     bit-identical verdicts;
//   * the executor's virtual-timeline clocks (arrival / service tail /
//     admit tail), so admission projections and WFQ virtual time continue
//     where they stopped;
//   * per-tenant served-byte ledgers (the reconciliation ground truth);
//   * the bandwidth-attribution ledger, so it reconciles byte-exactly with
//     the tenant ledgers across a restart.
//
// On disk the image is a runtime::Checkpoint (kind kDurableStateCheckpoint):
// versioned header, CRC32C-guarded sections, whole-file CRC, written via
// write-to-temp + fsync + atomic rename. Any corruption is a typed refusal
// at load — a service must never restart from a half-trusted snapshot.
//
// Snapshots are only taken at QUIESCED instants (executor queue empty,
// every forwarded job's outcome journaled): that is when the clocks and
// ledgers fully describe the timeline, and it cleanly partitions the
// journal into "covered by the snapshot" and "replay after restore".

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/executor/executor.h"
#include "runtime/service/service.h"
#include "util/expected.h"

namespace mcopt::runtime::durable {

/// Wire-format version of the state image (inside the checkpoint container,
/// which has its own). The only version this build reads or writes.
inline constexpr std::uint32_t kStateImageVersion = 2;

/// Section-flag bits carried in the checkpoint container's user[1] word.
/// Bit 0 is retired: it flagged a section no build writes any more, and an
/// image that sets it is refused like any other unknown flag.
inline constexpr std::uint64_t kStateFlagAttribution = 1u << 1;

/// Per-tenant durable accounting, accumulated from journaled completions.
struct TenantLedger {
  std::uint64_t completed = 0;
  std::uint64_t served_bytes = 0;  ///< sum of completed jobs' quote bytes
  std::uint64_t sheds = 0;         ///< typed losses (door + executor)
};

/// The restorable image. `ledger` is indexed like the door's tenants
/// (tenant id - 1) and must have the same length.
struct StateImage {
  std::uint64_t snapshot_id = 0;
  /// Journal records with sequence <= this are captured by the image and
  /// must not be replayed.
  std::uint64_t covered_sequence = 0;
  /// Largest submission id ever journaled at capture time: the dedup
  /// watermark (ids at or below it are acknowledged history).
  std::uint64_t max_submission_id = 0;
  service::DoorSnapshot door;
  exec::Executor::VirtualClocks clocks;
  std::vector<TenantLedger> ledger;
  /// Opaque obs::Attribution::encode() blob. Carried so the
  /// bandwidth-attribution ledger reconciles byte-exactly across restarts:
  /// the snapshot holds the covered prefix, journal replay re-charges the
  /// rest.
  bool has_attribution = false;
  std::vector<std::uint8_t> attribution;
};

/// Writes the image crash-consistently (temp + fsync + rename), mirroring
/// runtime::save_checkpoint — a reader sees the previous image or the
/// complete new one, never a tear.
[[nodiscard]] util::Status save_state(const std::string& path,
                                      const StateImage& image);

/// Loads and fully validates an image; any damage (container CRCs, section
/// shapes, field counts) is a typed refusal naming the first problem.
[[nodiscard]] util::Expected<StateImage> load_state(const std::string& path);

}  // namespace mcopt::runtime::durable
