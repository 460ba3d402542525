#include "core/flatten_cache.h"

#include <unordered_set>

#include "core/extension.h"

namespace orchestra::core {

uint64_t FlattenCache::ExtensionFingerprint(
    const std::vector<TransactionId>& extension) {
  // Seed with the length so a prefix and its extension never collide
  // structurally; id order matters (extensions are publication-sorted).
  uint64_t fp = HashCombine(0x9e3779b97f4a7c15ULL, extension.size());
  for (const TransactionId& id : extension) {
    fp = HashCombine(fp, static_cast<uint64_t>(id.origin));
    fp = HashCombine(fp, id.seq);
  }
  return fp;
}

const FlatExtensionRef* FlattenCache::FindFlat(const TransactionId& root,
                                                uint64_t fingerprint) const {
  auto it = flat_.find(root);
  if (it == flat_.end() || it->second.fingerprint != fingerprint) {
    ++stats_.flat_misses;
    return nullptr;
  }
  ++stats_.flat_hits;
  return &it->second.ext;
}

void FlattenCache::PutFlat(const TransactionId& root, uint64_t fingerprint,
                           FlatExtensionRef ext) {
  FlatEntry& entry = flat_[root];
  entry.fingerprint = fingerprint;
  entry.ext = std::move(ext);
}

const FlattenCache::PairVerdict* FlattenCache::FindPair(
    const TransactionId& a, const TransactionId& b, uint64_t fp_a,
    uint64_t fp_b) const {
  auto it = pairs_.find(PairKey{a, b});
  if (it == pairs_.end() || it->second.fp_a != fp_a ||
      it->second.fp_b != fp_b) {
    ++stats_.pair_misses;
    return nullptr;
  }
  ++stats_.pair_hits;
  return &it->second;
}

void FlattenCache::PutPair(const TransactionId& a, const TransactionId& b,
                           PairVerdict verdict) {
  pairs_[PairKey{a, b}] = std::move(verdict);
}

void FlattenCache::Invalidate(const std::vector<TransactionId>& roots) {
  if (roots.empty()) return;
  TxnIdSet gone(roots.begin(), roots.end());
  for (const TransactionId& id : roots) flat_.erase(id);
  // Pure filter: which entries survive does not depend on visit order.
  std::erase_if(pairs_, [&](const auto& entry) {
    return gone.count(entry.first.a) != 0 || gone.count(entry.first.b) != 0;
  });
}

void FlattenCache::Clear() {
  flat_.clear();
  pairs_.clear();
}

}  // namespace orchestra::core
