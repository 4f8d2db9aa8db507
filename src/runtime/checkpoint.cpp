#include "runtime/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "obs/trace.h"
#include "util/crc.h"
#include "util/wire.h"

namespace mcopt::runtime {
namespace {

constexpr std::size_t kHeaderBytes = 4 * 4 + 8 + 4 * 8 + 4;  // 60
constexpr std::size_t kSectionEntryBytes = 8 + 4 + 4;        // 16
constexpr std::size_t kFileCrcBytes = 4;

using util::wire::get_u32;
using util::wire::get_u64;
using util::wire::put_u32;
using util::wire::put_u64;

std::vector<std::uint8_t> serialize(const Checkpoint& ckpt) {
  std::vector<std::uint8_t> out;
  std::size_t payload = 0;
  for (const auto& s : ckpt.sections) payload += s.size();
  out.reserve(kHeaderBytes + kSectionEntryBytes * ckpt.sections.size() +
              payload + kFileCrcBytes);

  put_u32(out, kCheckpointMagic);
  put_u32(out, kCheckpointVersion);
  put_u32(out, ckpt.kind);
  put_u32(out, static_cast<std::uint32_t>(ckpt.sections.size()));
  put_u64(out, ckpt.iteration);
  for (std::uint64_t word : ckpt.user) put_u64(out, word);
  put_u32(out, util::crc32c(out.data(), out.size()));

  for (const auto& s : ckpt.sections) {
    put_u64(out, s.size());
    put_u32(out, util::crc32c(s.data(), s.size()));
    put_u32(out, 0);  // reserved
  }
  for (const auto& s : ckpt.sections) out.insert(out.end(), s.begin(), s.end());
  put_u32(out, util::crc32c(out.data(), out.size()));
  return out;
}

util::Status errno_failure(const std::string& what, const std::string& path) {
  return util::Status::failure("checkpoint: " + what + " '" + path +
                               "': " + std::strerror(errno));
}

}  // namespace

util::Status save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  const obs::TraceSpan span("ckpt.save", "ckpt", ckpt.sections.size(), 0);
  if (ckpt.sections.size() > 0xFFFFu)
    return util::Status::failure("checkpoint: too many sections");
  const std::vector<std::uint8_t> bytes = serialize(ckpt);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return errno_failure("cannot create", tmp);
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return errno_failure("short write to", tmp);
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return errno_failure("cannot flush", tmp);
  }
#ifndef _WIN32
  // The durability point: data reaches the device before the rename can
  // publish the file, so a crash leaves either the old checkpoint or the
  // complete new one.
  if (fsync(fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return errno_failure("cannot fsync", tmp);
  }
#endif
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return errno_failure("cannot close", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return errno_failure("cannot rename into", path);
  }
  return util::Status{};
}

util::Expected<Checkpoint> load_checkpoint(const std::string& path) {
  const obs::TraceSpan span("ckpt.load", "ckpt");
  using Result = util::Expected<Checkpoint>;
  auto contents = util::wire::read_file(path, "checkpoint");
  if (!contents) return Result::failure(contents.error().message);
  const std::vector<std::uint8_t>& bytes = contents.value();

  if (bytes.size() < kHeaderBytes + kFileCrcBytes)
    return Result::failure("checkpoint: '" + path + "' is truncated (" +
                           std::to_string(bytes.size()) +
                           " bytes; a valid file has at least " +
                           std::to_string(kHeaderBytes + kFileCrcBytes) + ")");

  const std::uint8_t* p = bytes.data();
  if (get_u32(p) != kCheckpointMagic)
    return Result::failure("checkpoint: '" + path +
                           "' is not a checkpoint (bad magic)");
  const std::uint32_t version = get_u32(p + 4);
  if (version != kCheckpointVersion)
    return Result::failure("checkpoint: '" + path + "' has version " +
                           std::to_string(version) + "; this build reads " +
                           std::to_string(kCheckpointVersion));
  const std::uint32_t stored_header_crc = get_u32(p + kHeaderBytes - 4);
  const std::uint32_t header_crc = util::crc32c(p, kHeaderBytes - 4);
  if (stored_header_crc != header_crc)
    return Result::failure("checkpoint: '" + path +
                           "' header CRC mismatch (stored " +
                           std::to_string(stored_header_crc) + ", computed " +
                           std::to_string(header_crc) + ")");

  Checkpoint ckpt;
  ckpt.kind = get_u32(p + 8);
  const std::uint32_t section_count = get_u32(p + 12);
  ckpt.iteration = get_u64(p + 16);
  for (std::size_t i = 0; i < ckpt.user.size(); ++i)
    ckpt.user[i] = get_u64(p + 24 + 8 * i);

  const std::size_t table_at = kHeaderBytes;
  const std::size_t table_bytes =
      kSectionEntryBytes * static_cast<std::size_t>(section_count);
  if (bytes.size() < table_at + table_bytes + kFileCrcBytes)
    return Result::failure("checkpoint: '" + path +
                           "' is truncated inside the section table");

  // Whole-file CRC next: with it verified, any remaining length
  // inconsistency is a writer bug, not damage — but check anyway.
  const std::uint32_t stored_file_crc =
      get_u32(p + bytes.size() - kFileCrcBytes);
  const std::uint32_t file_crc =
      util::crc32c(p, bytes.size() - kFileCrcBytes);
  if (stored_file_crc != file_crc)
    return Result::failure("checkpoint: '" + path +
                           "' file CRC mismatch (stored " +
                           std::to_string(stored_file_crc) + ", computed " +
                           std::to_string(file_crc) + ")");

  std::size_t at = table_at + table_bytes;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const std::uint8_t* entry = p + table_at + kSectionEntryBytes * s;
    const std::uint64_t len = get_u64(entry);
    const std::uint32_t stored_crc = get_u32(entry + 8);
    if (len > bytes.size() - kFileCrcBytes ||
        at + len > bytes.size() - kFileCrcBytes)
      return Result::failure("checkpoint: '" + path + "' section " +
                             std::to_string(s) +
                             " extends past the end of the file");
    const std::uint32_t crc = util::crc32c(p + at, static_cast<std::size_t>(len));
    if (crc != stored_crc)
      return Result::failure("checkpoint: '" + path + "' section " +
                             std::to_string(s) + " CRC mismatch (stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(crc) + ")");
    ckpt.sections.emplace_back(p + at, p + at + len);
    at += static_cast<std::size_t>(len);
  }
  if (at + kFileCrcBytes != bytes.size())
    return Result::failure("checkpoint: '" + path +
                           "' has trailing bytes after the last section");
  return ckpt;
}

// --- Jacobi ----------------------------------------------------------------

util::Status save_jacobi_checkpoint(const std::string& path,
                                    const seg::seg_array<double>& field,
                                    std::uint64_t sweeps) {
  const std::size_t n = field.num_segments();
  Checkpoint ckpt;
  ckpt.kind = kJacobiCheckpoint;
  ckpt.iteration = sweeps;
  ckpt.user[0] = n;
  std::vector<std::uint8_t> payload(n * n * sizeof(double));
  for (std::size_t i = 0; i < n; ++i)
    std::memcpy(payload.data() + i * n * sizeof(double),
                field.segment(i).begin(), n * sizeof(double));
  ckpt.sections.push_back(std::move(payload));
  return save_checkpoint(path, ckpt);
}

util::Expected<JacobiState> load_jacobi_checkpoint(const std::string& path) {
  using Result = util::Expected<JacobiState>;
  auto loaded = load_checkpoint(path);
  if (!loaded) return Result::failure(loaded.error().message);
  const Checkpoint& ckpt = loaded.value();
  if (ckpt.kind != kJacobiCheckpoint)
    return Result::failure("checkpoint: '" + path +
                           "' is not a Jacobi checkpoint (kind " +
                           std::to_string(ckpt.kind) + ")");
  if (ckpt.sections.size() != 1)
    return Result::failure("checkpoint: Jacobi checkpoint '" + path +
                           "' must have exactly one section");
  JacobiState state;
  state.n = static_cast<std::size_t>(ckpt.user[0]);
  state.sweeps = ckpt.iteration;
  const auto& payload = ckpt.sections[0];
  if (state.n < 3 || payload.size() != state.n * state.n * sizeof(double))
    return Result::failure("checkpoint: '" + path + "' claims an n=" +
                           std::to_string(state.n) + " grid but carries " +
                           std::to_string(payload.size()) + " payload bytes");
  state.field.resize(state.n * state.n);
  std::memcpy(state.field.data(), payload.data(), payload.size());
  return state;
}

util::Status apply_jacobi_state(const JacobiState& state,
                                seg::seg_array<double>& field) {
  const std::size_t n = field.num_segments();
  if (n != state.n)
    return util::Status::failure(
        "checkpoint: grid is n=" + std::to_string(n) +
        " but the checkpoint holds n=" + std::to_string(state.n));
  for (std::size_t i = 0; i < n; ++i)
    std::memcpy(field.segment(i).begin(), state.field.data() + i * n,
                n * sizeof(double));
  return util::Status{};
}

// --- LBM -------------------------------------------------------------------

namespace {

std::uint64_t lbm_shape_word(const kernels::lbm::Geometry& g) {
  return static_cast<std::uint64_t>(g.pad_x) * 4 +
         static_cast<std::uint64_t>(g.layout) * 2 + 1;
}

}  // namespace

util::Status save_lbm_checkpoint(const std::string& path,
                                 const kernels::lbm::Solver& solver) {
  const kernels::lbm::Geometry& g = solver.geometry();
  Checkpoint ckpt;
  ckpt.kind = kLbmCheckpoint;
  ckpt.iteration = solver.steps_taken();
  ckpt.user = {g.nx, g.ny, g.nz, lbm_shape_word(g)};
  const std::vector<double>& f = solver.distributions();
  std::vector<std::uint8_t> payload(f.size() * sizeof(double));
  std::memcpy(payload.data(), f.data(), payload.size());
  ckpt.sections.push_back(std::move(payload));
  return save_checkpoint(path, ckpt);
}

util::Status load_lbm_checkpoint(const std::string& path,
                                 kernels::lbm::Solver& solver) {
  auto loaded = load_checkpoint(path);
  if (!loaded) return util::Status::failure(loaded.error().message);
  const Checkpoint& ckpt = loaded.value();
  if (ckpt.kind != kLbmCheckpoint)
    return util::Status::failure("checkpoint: '" + path +
                                 "' is not an LBM checkpoint (kind " +
                                 std::to_string(ckpt.kind) + ")");
  const kernels::lbm::Geometry& g = solver.geometry();
  const std::array<std::uint64_t, 4> want{g.nx, g.ny, g.nz, lbm_shape_word(g)};
  if (ckpt.user != want)
    return util::Status::failure(
        "checkpoint: '" + path + "' was written for a " +
        std::to_string(ckpt.user[0]) + "x" + std::to_string(ckpt.user[1]) +
        "x" + std::to_string(ckpt.user[2]) + " domain (shape word " +
        std::to_string(ckpt.user[3]) + "), solver has " +
        std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
        std::to_string(g.nz) + " (shape word " +
        std::to_string(lbm_shape_word(g)) + ")");
  if (ckpt.sections.size() != 1)
    return util::Status::failure("checkpoint: LBM checkpoint '" + path +
                                 "' must have exactly one section");
  const auto& payload = ckpt.sections[0];
  if (payload.size() != g.f_elems() * sizeof(double))
    return util::Status::failure(
        "checkpoint: '" + path + "' distribution payload is " +
        std::to_string(payload.size()) + " bytes, geometry needs " +
        std::to_string(g.f_elems() * sizeof(double)));
  std::vector<double> f(g.f_elems());
  std::memcpy(f.data(), payload.data(), payload.size());
  solver.restore(std::move(f), static_cast<unsigned>(ckpt.iteration));
  return util::Status{};
}

}  // namespace mcopt::runtime
