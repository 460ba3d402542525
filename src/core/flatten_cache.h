#ifndef ORCHESTRA_CORE_FLATTEN_CACHE_H_
#define ORCHESTRA_CORE_FLATTEN_CACHE_H_

#include <unordered_map>
#include <vector>

#include "core/conflict.h"
#include "core/flatten.h"
#include "core/ids.h"
#include "core/update.h"

namespace orchestra::core {

/// Cross-round cache of the two expensive, data-only products of
/// reconciliation analysis: per-root flattened update extensions and
/// pairwise direct-conflict verdicts. A published transaction's updates
/// never change, so both products depend only on the root's transaction
/// extension — which the cache captures as a 64-bit fingerprint of the
/// ordered extension id list. A lookup hits only when the fingerprint
/// matches, so an extension that shrank (an antecedent was applied since
/// the last round) or otherwise changed misses naturally and is
/// recomputed; this is how reconsidered deferred transactions are
/// invalidated without any explicit bookkeeping.
///
/// The cache is participant soft state (§5.2): losing it costs only
/// recomputation. It must be explicitly invalidated when the
/// trust/acceptance configuration changes in a way fingerprints cannot
/// see — a conflict resolution rejecting transactions (Invalidate) or a
/// wholesale trust-policy change (Clear).
///
/// Thread-safety: lookups and insertions are NOT synchronized. The
/// analysis code probes and fills the cache only from the coordinating
/// thread, outside parallel regions.
class FlattenCache {
 public:
  /// The flattening of one root's extension, shared read-only with the
  /// analyses that use it (a hit copies a pointer, not the updates).
  /// FlatExtension::ok == false caches the fact that the extension is
  /// internally inconsistent.
  struct FlatEntry {
    uint64_t fingerprint = 0;
    FlatExtensionRef ext;
  };

  /// Verdict for the ordered root pair (a, b), a < b: the conflict
  /// points of the direct, non-subsumed conflict test (empty == the
  /// pair does not conflict), valid while both extensions still have
  /// the recorded fingerprints.
  struct PairVerdict {
    uint64_t fp_a = 0;
    uint64_t fp_b = 0;
    std::vector<ConflictPoint> points;
  };

  /// Hit/miss counters since construction or ResetStats; exposed for
  /// benchmarks and tests.
  struct Stats {
    size_t flat_hits = 0;
    size_t flat_misses = 0;
    size_t pair_hits = 0;
    size_t pair_misses = 0;
  };

  /// Order-sensitive fingerprint of an extension id list.
  static uint64_t ExtensionFingerprint(
      const std::vector<TransactionId>& extension);

  /// The cached flattening for `root`, or nullptr when absent or when
  /// the cached entry covers a different extension.
  const FlatExtensionRef* FindFlat(const TransactionId& root,
                                   uint64_t fingerprint) const;
  void PutFlat(const TransactionId& root, uint64_t fingerprint,
               FlatExtensionRef ext);

  /// The cached conflict verdict for the pair (a, b) — callers must pass
  /// a < b — or nullptr when absent or stale.
  const PairVerdict* FindPair(const TransactionId& a, const TransactionId& b,
                              uint64_t fp_a, uint64_t fp_b) const;
  void PutPair(const TransactionId& a, const TransactionId& b,
               PairVerdict verdict);

  /// Drops every entry mentioning any of `roots` (flat entries keyed by
  /// a listed root; pair verdicts with a listed root on either side).
  /// Called when roots leave the undecided set for good (applied or
  /// rejected) and when a conflict resolution rejects transactions.
  void Invalidate(const std::vector<TransactionId>& roots);

  /// Drops everything; required when the trust policy changes.
  void Clear();

  size_t flat_entries() const { return flat_.size(); }
  size_t pair_entries() const { return pairs_.size(); }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  struct PairKey {
    TransactionId a;
    TransactionId b;
    friend bool operator==(const PairKey& x, const PairKey& y) {
      return x.a == y.a && x.b == y.b;
    }
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const {
      TransactionIdHash h;
      return static_cast<size_t>(HashCombine(h(k.a), h(k.b)));
    }
  };

  std::unordered_map<TransactionId, FlatEntry, TransactionIdHash> flat_;
  std::unordered_map<PairKey, PairVerdict, PairKeyHash> pairs_;
  mutable Stats stats_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_FLATTEN_CACHE_H_
