#ifndef ORCHESTRA_CORE_ANALYSIS_H_
#define ORCHESTRA_CORE_ANALYSIS_H_

#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "core/conflict.h"
#include "core/flatten.h"
#include "core/reconciler.h"
#include "core/transaction.h"

namespace orchestra {
class ThreadPool;  // common/thread_pool.h
}

namespace orchestra::core {

class FlattenCache;  // core/flatten_cache.h

/// The data-dependent half of reconciliation — flattened update
/// extensions and the pairwise direct-conflict relation — separated from
/// the decision half (which depends on the reconciling participant's
/// private instance, delta, and soft state).
///
/// In client-centric reconciliation (§5.1) the client computes this; in
/// network-centric reconciliation (§5, Fig. 3) the update store computes
/// it across the network and ships the result, trading network traffic
/// for client work. Both paths call the same functions below, so the two
/// modes are decision-equivalent by construction.
struct ReconcileAnalysis {
  /// Flattened, keyed update extension per input transaction (parallel
  /// to the TrustedTxn list; never null once filled). `ok` is false when
  /// the extension is internally inconsistent (the reconciler rejects
  /// it). Shared read-only with the FlattenCache and with every consumer
  /// of the analysis, so copying an analysis copies no updates.
  std::vector<FlatExtensionRef> up_ex;

  /// One entry per directly conflicting, non-subsumed pair (Definition 4
  /// with the Fig. 5 subsumption exemption), i < j indices into the
  /// TrustedTxn list.
  struct Pair {
    size_t i = 0;
    size_t j = 0;
    std::vector<ConflictPoint> points;
  };
  std::vector<Pair> conflicts;
};

ReconcileAnalysis::Pair MakeAnalysisPair(size_t i, size_t j,
                                         std::vector<ConflictPoint> points);

/// Execution knobs for the analysis functions. Both halves of the
/// analysis are embarrassingly parallel (per transaction, per candidate
/// pair) and largely redundant across reconciliation rounds, so callers
/// can supply a thread pool and a cross-round cache; the defaults run
/// the original serial, uncached computation. Results are bit-identical
/// across every combination: parallel loops write disjoint
/// index-addressed slots and conflicts are merged in sorted (i, j)
/// order, and cache hits reproduce exactly what recomputation would
/// have produced (entries are fingerprint-validated against the current
/// extension).
struct AnalysisOptions {
  /// Null (or a 1-thread pool) takes the exact serial path.
  ThreadPool* pool = nullptr;
  /// Null disables caching. The cache is probed and filled only from
  /// the calling thread, never inside parallel regions.
  FlattenCache* cache = nullptr;
};

/// Computes up_ex for the entries of `txns` it does not cover yet.
void FlattenExtensions(const db::Catalog& catalog,
                       const TransactionProvider& provider,
                       const std::vector<TrustedTxn>& txns,
                       ReconcileAnalysis* analysis,
                       const AnalysisOptions& options = {});

/// Appends to analysis->conflicts every directly conflicting pair among
/// `txns` with indices in [first, txns.size()) × [0, txns.size()) —
/// passing first = 0 covers all pairs; a larger `first` restricts to
/// pairs involving at least one transaction from the tail, which lets a
/// caller extend an existing analysis with extra transactions (e.g. the
/// locally cached deferred backlog) without recomputing the head.
/// Pairs are appended in increasing (i, j) order regardless of thread
/// count.
void FindExtensionConflicts(const db::Catalog& catalog,
                            const TransactionProvider& provider,
                            const std::vector<TrustedTxn>& txns,
                            size_t first, ReconcileAnalysis* analysis,
                            const AnalysisOptions& options = {});

/// Convenience: full analysis of `txns` (flatten + all-pairs conflicts).
ReconcileAnalysis AnalyzeExtensions(const db::Catalog& catalog,
                                    const TransactionProvider& provider,
                                    const std::vector<TrustedTxn>& txns,
                                    const AnalysisOptions& options = {});

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_ANALYSIS_H_
