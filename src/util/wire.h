#pragma once
// Little-endian wire codec shared by every binary format in the tree: the
// durable journal, checkpoint files, the durable state image and attribution
// snapshots. Integers are written least significant byte first; doubles ride
// as their IEEE-754 bit pattern, so values that feed replayed arithmetic
// (token buckets, derate factors) round-trip bit-identically.

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/expected.h"

namespace mcopt::util::wire {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

[[nodiscard]] inline double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Bounds-checked cursor over one encoded buffer. Reads past the end set
/// ok = false and return zeros; callers check ok (or done(), which also
/// demands full consumption) once instead of threading a Status through
/// every field.
struct Reader {
  const std::uint8_t* p;
  std::size_t size;
  std::size_t at = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || size - at < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = get_u32(p + at);
    at += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    const std::uint64_t v = get_u64(p + at);
    at += 8;
    return v;
  }
  double f64() {
    if (!need(8)) return 0.0;
    const double v = get_f64(p + at);
    at += 8;
    return v;
  }
  [[nodiscard]] bool done() const { return ok && at == size; }
};

/// Reads the whole file at `path`. A failure names the format `who` and the
/// path: "<who>: cannot open '<path>': <reason>" or
/// "<who>: read error on '<path>'".
[[nodiscard]] inline util::Expected<std::vector<std::uint8_t>> read_file(
    const std::string& path, const char* who) {
  using Result = util::Expected<std::vector<std::uint8_t>>;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Result::failure(std::string(who) + ": cannot open '" + path +
                           "': " + std::strerror(errno));
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error)
    return Result::failure(std::string(who) + ": read error on '" + path + "'");
  return bytes;
}

}  // namespace mcopt::util::wire
