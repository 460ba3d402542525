#ifndef ORCHESTRA_STORE_RELEVANCE_H_
#define ORCHESTRA_STORE_RELEVANCE_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/ids.h"
#include "core/transaction.h"
#include "core/trust.h"

namespace orchestra::store {

/// What a peer has durably recorded about one transaction.
enum class Verdict { kUndecided, kApplied, kRejected };

/// The §5.2 relevance rule, stated once for every store path. A *root*
/// (a transaction of the window being fetched) ships iff the peer has
/// recorded no verdict on it and trusts it (`priority` > 0). An
/// *antecedent* of a shipped transaction ships iff the peer has not
/// applied it, whatever its trust. `priority` is read only for an
/// undecided root.
bool Ships(bool root, Verdict verdict, int priority);

/// One id the walk asks the store to look up; `root_index` is a root's
/// position in the walk's root list.
struct LevelEntry {
  core::TransactionId id;
  bool root = false;
  size_t root_index = 0;
};

/// Applies the rule to entry `entry` of the level and returns whether it
/// ships. `stored` is the store's copy of the transaction, required for
/// a root (its priority is read from it) and optional for an antecedent.
using DecideFn = std::function<bool(size_t entry, Verdict verdict,
                                    const core::Transaction* stored)>;

/// A store's access path for one level: looks up every entry in order,
/// calls `decide` once per entry, charges each reply, and appends the
/// shipped transactions, as the peer received them, to `shipped`.
using LookupLevelFn = std::function<Status(
    const std::vector<LevelEntry>& level, const DecideFn& decide,
    std::vector<core::Transaction>* shipped)>;

/// A verdict the store knows without a lookup (the kDelta applied
/// overlay, a recovery sweep's decisions), or nullopt. An id the rule
/// skips on its known verdict is never looked up.
using KnownVerdictFn =
    std::function<std::optional<Verdict>(const core::TransactionId& id)>;

struct RelevantClosure {
  /// Shipped roots with their trust priorities, in walk order.
  std::vector<std::pair<core::TransactionId, int>> roots;
  /// Every shipped transaction, in walk order.
  std::vector<core::Transaction> transactions;
};

/// Walks `roots` and their antecedent closure level by level in FIFO
/// order: the roots first, then the antecedents of each level's shipped
/// transactions in the order they shipped. Each id ships at most once
/// and an id found applied is not looked up again, but an id skipped as
/// a root (rejected or untrusted) is looked up again when it is reached
/// as an antecedent.
Result<RelevantClosure> WalkRelevantClosure(
    const core::TrustPolicy& policy,
    const std::vector<core::TransactionId>& roots,
    const KnownVerdictFn& known, const LookupLevelFn& lookup_level);

/// Sorts into publication order, (epoch, id): the order recovery and
/// bootstrap replay applied transactions in.
void SortByPublication(std::vector<core::Transaction>* txns);

}  // namespace orchestra::store

#endif  // ORCHESTRA_STORE_RELEVANCE_H_
