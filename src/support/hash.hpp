// Stable content hashing.
//
// Spack identifies concrete specs by a DAG hash; we reproduce that with a
// 64-bit FNV-1a hash rendered base32 (Spack-style lowercase hash prefix).
// The hash must be stable across runs and platforms, so no std::hash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace benchpark::support {

/// Incremental FNV-1a 64-bit hasher.
class Hasher {
public:
  Hasher& update(std::string_view data);
  Hasher& update(std::uint64_t v);

  [[nodiscard]] std::uint64_t digest() const { return state_; }

  /// Spack-style lowercase base32 rendering (13 chars for 64 bits).
  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::string base32() const;

private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One-shot helpers.
std::uint64_t fnv1a(std::string_view data);
std::string hash_base32(std::string_view data);

}  // namespace benchpark::support
