#ifndef ORCHESTRA_CORE_DECISION_H_
#define ORCHESTRA_CORE_DECISION_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/conflict.h"
#include "core/ids.h"

namespace orchestra::core {

/// Per-transaction outcome of a reconciliation (Figs. 4-5).
enum class Decision {
  kUndecided = 0,
  kAccept,
  kReject,
  kDefer,
};

std::string_view DecisionName(Decision decision);

/// Set of (relation, key) values with O(1) membership; the dirty-value
/// set marks keys read or written by deferred transactions (§5). A
/// HashedRelKey probes it without re-hashing.
using RelKeySet = std::unordered_set<RelKey, RelKeyHash, RelKeyEq>;

/// A group of deferred transactions that make the *same* modification to
/// the contested key value; resolving a conflict group accepts at most
/// one option and rejects the transactions of the others (§5).
struct ConflictOption {
  std::vector<TransactionId> txns;
  /// Human-readable rendering of the modification the option makes
  /// ("+F('rat','prot1','immune')"), for the resolving user.
  std::string effect;
};

/// All deferred conflicts involving the same ⟨type, key value⟩ (§5).
struct ConflictGroup {
  ConflictPoint point;
  std::vector<ConflictOption> options;

  std::string ToString() const;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_DECISION_H_
