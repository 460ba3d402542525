#ifndef ORCHESTRA_COMMON_STRING_UTIL_H_
#define ORCHESTRA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace orchestra {

/// Joins the elements of `parts` with `sep` ("a, b, c").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `input` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char sep);

/// FNV-1a 64-bit hash; stable across platforms, used for DHT keys and
/// (relation, key) hashing.
uint64_t Fnv1a64(std::string_view data);

/// Combines two hash values (Boost-style mixing).
uint64_t HashCombine(uint64_t seed, uint64_t value);

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_STRING_UTIL_H_
