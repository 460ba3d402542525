#include "core/analysis.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "core/extension.h"
#include "core/flatten.h"
#include "core/flatten_cache.h"

namespace orchestra::core {

namespace {

/// UpdateFootprint without the members in `exclude` (id-sorted), borrowed
/// from the provider rather than copied.
std::vector<const Update*> BorrowFootprint(
    const TransactionProvider& provider,
    const std::vector<TransactionId>& extension,
    const std::vector<TransactionId>& exclude = {}) {
  std::vector<const Update*> footprint;
  for (const TransactionId& id : extension) {
    if (std::binary_search(exclude.begin(), exclude.end(), id)) continue;
    auto txn = provider.Get(id);
    if (!txn.ok()) continue;  // as UpdateFootprint: resolved upstream
    for (const Update& u : (*txn)->updates) footprint.push_back(&u);
  }
  return footprint;
}

/// The direct-conflict test for one candidate pair (i, j): the cheap
/// full-extension conflict test, the Fig. 5 subsumption exemption, and
/// the Definition 4 shared-antecedent refinement. Returns the conflict
/// points (empty == no direct conflict). Pure function of the two
/// transactions' extensions — safe to run concurrently for distinct
/// pairs and to cache across rounds.
std::vector<ConflictPoint> TestCandidatePair(
    const db::Catalog& catalog, const TransactionProvider& provider,
    const TrustedTxn& txn_i, const TrustedTxn& txn_j,
    const FlatExtension& ext_i, const FlatExtension& ext_j) {
  std::vector<ConflictPoint> points = SetsConflict(ext_i, ext_j);
  if (points.empty()) return points;
  // Fig. 5 FindConflicts line 4: a subsumed transaction never counts as
  // conflicting with its subsumer.
  if (Subsumes(ext_i.members, ext_j.members) ||
      Subsumes(ext_j.members, ext_i.members)) {
    return {};
  }
  // Definition 4 (direct conflict): interactions through *shared*
  // antecedents do not count — compare the extensions with the shared
  // transactions S removed. Only needed when the cheap full-extension
  // test fired and the extensions overlap.
  const std::vector<TransactionId> shared =
      SharedMembers(ext_i.members, ext_j.members);
  if (!shared.empty()) {
    auto flat_i =
        FlattenKeyed(catalog, BorrowFootprint(provider, txn_i.extension,
                                              shared));
    auto flat_j =
        FlattenKeyed(catalog, BorrowFootprint(provider, txn_j.extension,
                                              shared));
    if (flat_i.ok() && flat_j.ok()) {
      points = SetsConflict(*flat_i, *flat_j);
    }
  }
  return points;
}

/// Every unordered pair (i, j), i < j, j >= first, of transactions whose
/// flattened extensions share a touched key, in increasing (i, j) order.
/// Each transaction contributes its distinct keys once; sorting the
/// entries by (hash, txn) groups the holders of each key, so no hash
/// table is built.
std::vector<std::pair<size_t, size_t>> CandidatePairs(
    const std::vector<FlatExtensionRef>& up_ex, size_t first) {
  struct Entry {
    uint64_t hash;
    uint32_t txn;
    const RelKey* key;
  };
  std::vector<Entry> entries;
  for (size_t i = 0; i < up_ex.size(); ++i) {
    const std::vector<KeyedUpdates::Key>& keys = up_ex[i]->keys;
    for (size_t k = 0; k < keys.size(); ++k) {
      // Equal keys are adjacent within one extension's sorted list, up
      // to hash collisions; skip repeats of a key this txn already gave.
      bool repeat = false;
      for (size_t p = k; p-- > 0 && keys[p].hash == keys[k].hash;) {
        if (keys[p].key == keys[k].key) {
          repeat = true;
          break;
        }
      }
      if (!repeat) {
        entries.push_back(
            Entry{keys[k].hash, static_cast<uint32_t>(i), &keys[k].key});
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.txn < b.txn;
            });
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t lo = 0; lo < entries.size();) {
    size_t hi = lo + 1;
    bool one_key = true;  // false only on a hash collision
    while (hi < entries.size() && entries[hi].hash == entries[lo].hash) {
      one_key = one_key && *entries[hi].key == *entries[lo].key;
      ++hi;
    }
    for (size_t a = lo; a < hi; ++a) {
      for (size_t b = a + 1; b < hi; ++b) {
        const uint32_t i = entries[a].txn;
        const uint32_t j = entries[b].txn;
        if (i == j || j < first) continue;  // head×head pairs already done
        if (!one_key && !(*entries[a].key == *entries[b].key)) continue;
        pairs.emplace_back(i, j);
      }
    }
    lo = hi;
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Flattens and keys one transaction extension (sorted by publication
/// order, as TrustedTxn::extension is).
FlatExtensionRef FlattenExtension(const db::Catalog& catalog,
                                  const TransactionProvider& provider,
                                  const std::vector<TransactionId>& extension) {
  auto ext = std::make_shared<FlatExtension>();
  auto flat = FlattenKeyed(catalog, BorrowFootprint(provider, extension));
  if (flat.ok()) {
    static_cast<KeyedUpdates&>(*ext) = *std::move(flat);
    ext->ok = true;
  }
  ext->members = extension;
  std::sort(ext->members.begin(), ext->members.end());
  return ext;
}

}  // namespace

ReconcileAnalysis::Pair MakeAnalysisPair(size_t i, size_t j,
                                         std::vector<ConflictPoint> points) {
  ReconcileAnalysis::Pair pair;
  pair.i = i;
  pair.j = j;
  pair.points = std::move(points);
  return pair;
}

void FlattenExtensions(const db::Catalog& catalog,
                       const TransactionProvider& provider,
                       const std::vector<TrustedTxn>& txns,
                       ReconcileAnalysis* analysis,
                       const AnalysisOptions& options) {
  const size_t start = analysis->up_ex.size();
  analysis->up_ex.resize(txns.size());

  // Probe the cache on the calling thread; only misses do real work.
  std::vector<size_t> misses;
  misses.reserve(txns.size() - start);
  std::vector<uint64_t> fingerprint;
  if (options.cache != nullptr) fingerprint.resize(txns.size(), 0);
  for (size_t i = start; i < txns.size(); ++i) {
    if (options.cache != nullptr) {
      fingerprint[i] = FlattenCache::ExtensionFingerprint(txns[i].extension);
      if (const FlatExtensionRef* hit =
              options.cache->FindFlat(txns[i].id, fingerprint[i])) {
        analysis->up_ex[i] = *hit;
        continue;
      }
    }
    misses.push_back(i);
  }

  // Each miss writes only its own preallocated slot, so the parallel
  // loop is race-free and its output identical to the serial loop's.
  ParallelFor(options.pool, misses.size(), [&](size_t k) {
    const size_t i = misses[k];
    analysis->up_ex[i] = FlattenExtension(catalog, provider, txns[i].extension);
  });

  if (options.cache != nullptr) {
    for (size_t i : misses) {
      options.cache->PutFlat(txns[i].id, fingerprint[i], analysis->up_ex[i]);
    }
  }
}

void FindExtensionConflicts(const db::Catalog& catalog,
                            const TransactionProvider& provider,
                            const std::vector<TrustedTxn>& txns,
                            size_t first, ReconcileAnalysis* analysis,
                            const AnalysisOptions& options) {
  const size_t n = txns.size();
  // Candidate pairs share a touched key, in (i, j) order, so testing
  // order, cache-fill order and result order do not depend on thread
  // count.
  const std::vector<std::pair<size_t, size_t>> pairs =
      CandidatePairs(analysis->up_ex, first);

  // Resolve from the cache where possible; test the rest in parallel.
  // Every slot of `points` is written by exactly one task.
  std::vector<std::vector<ConflictPoint>> points(pairs.size());
  std::vector<uint8_t> cached(pairs.size(), 0);
  std::vector<uint64_t> fingerprint;
  if (options.cache != nullptr) {
    fingerprint.resize(n, 0);
    for (size_t i = 0; i < n; ++i) {
      fingerprint[i] = FlattenCache::ExtensionFingerprint(txns[i].extension);
    }
    for (size_t p = 0; p < pairs.size(); ++p) {
      const auto [i, j] = pairs[p];
      if (const FlattenCache::PairVerdict* hit = options.cache->FindPair(
              txns[i].id, txns[j].id, fingerprint[i], fingerprint[j])) {
        points[p] = hit->points;
        cached[p] = 1;
      }
    }
  }
  ParallelFor(options.pool, pairs.size(), [&](size_t p) {
    if (cached[p]) return;
    const auto [i, j] = pairs[p];
    points[p] = TestCandidatePair(catalog, provider, txns[i], txns[j],
                                  *analysis->up_ex[i], *analysis->up_ex[j]);
  });
  if (options.cache != nullptr) {
    for (size_t p = 0; p < pairs.size(); ++p) {
      if (cached[p]) continue;
      const auto [i, j] = pairs[p];
      FlattenCache::PairVerdict verdict;
      verdict.fp_a = fingerprint[i];
      verdict.fp_b = fingerprint[j];
      verdict.points = points[p];
      options.cache->PutPair(txns[i].id, txns[j].id, std::move(verdict));
    }
  }

  // Deterministic merge in (i, j) order.
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (points[p].empty()) continue;
    analysis->conflicts.push_back(
        MakeAnalysisPair(pairs[p].first, pairs[p].second,
                         std::move(points[p])));
  }
}

ReconcileAnalysis AnalyzeExtensions(const db::Catalog& catalog,
                                    const TransactionProvider& provider,
                                    const std::vector<TrustedTxn>& txns,
                                    const AnalysisOptions& options) {
  ReconcileAnalysis analysis;
  FlattenExtensions(catalog, provider, txns, &analysis, options);
  FindExtensionConflicts(catalog, provider, txns, 0, &analysis, options);
  return analysis;
}

}  // namespace orchestra::core
