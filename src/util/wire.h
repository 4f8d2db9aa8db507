#pragma once
// Little-endian wire codec shared by every binary format in the tree: the
// durable journal, checkpoint files, the durable state image and attribution
// snapshots. Integers are written least significant byte first; doubles ride
// as their IEEE-754 bit pattern, so values that feed replayed arithmetic
// (token buckets, derate factors) round-trip bit-identically.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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

/// A u32 length followed by the bytes.
inline void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
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
  std::string str() {
    const std::uint32_t len = u32();
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + at), len);
    at += len;
    return s;
  }
  [[nodiscard]] bool done() const { return ok && at == size; }
};

}  // namespace mcopt::util::wire
