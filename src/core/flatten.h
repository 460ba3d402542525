#ifndef ORCHESTRA_CORE_FLATTEN_H_
#define ORCHESTRA_CORE_FLATTEN_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "core/ids.h"
#include "core/update.h"

namespace orchestra::core {

/// Flattens an ordered update sequence into a set of mutually independent
/// net updates, removing every intermediate step (the Heraclitus-style
/// delta composition of [12, 14] that §4.2 relies on). Composition rules
/// per logical tuple chain:
///
///   +t        ∘ t->t'   = +t'
///   +t        ∘ -t      = (nothing)
///   t0->t     ∘ t->t'   = t0->t'   (identity t0->t0 is dropped)
///   t0->t     ∘ -t      = -t0
///   -t        ∘ +t'     = t->t'    (remove-and-replace of the same key;
///                                   dropped entirely if t' == t)
///
/// Chains follow key changes: a modify that moves a tuple to a new key
/// moves its chain with it.
///
/// Fails with Conflict if the sequence is internally inconsistent (e.g.
/// inserts a key twice without an intervening delete, or modifies a tuple
/// the sequence has already deleted) — such a sequence cannot be one
/// transaction extension and the caller rejects it.
///
/// The resulting net updates are returned in deterministic order
/// (relation, key) and carry the origin of the *last* writer of each
/// chain, which is what trust predicates over update origin inspect.
Result<std::vector<Update>> Flatten(const db::Catalog& catalog,
                                    const std::vector<Update>& sequence);

/// Flatten, plus the (relation, key) entries each net update touches.
/// The keys are the ones the flattener's chain indexes already hold, so
/// nothing is projected or hashed twice; `updates` equals Flatten's
/// result exactly.
Result<KeyedUpdates> FlattenKeyed(const db::Catalog& catalog,
                                  const std::vector<Update>& sequence);
/// The same over borrowed updates, so a caller can flatten a footprint
/// without first copying it into one vector.
Result<KeyedUpdates> FlattenKeyed(const db::Catalog& catalog,
                                  const std::vector<const Update*>& sequence);

/// One transaction's flattened update extension as reconciliation
/// analysis consumes it: the keyed net updates plus the extension's
/// members sorted by id, so subsumption and shared-antecedent tests are
/// merges. Computed once per transaction per round (or reused from the
/// FlattenCache) and shared read-only from then on.
struct FlatExtension : KeyedUpdates {
  /// False when the extension is internally inconsistent; the updates
  /// and keys are then empty and the reconciler rejects the transaction.
  bool ok = false;
  std::vector<TransactionId> members;
};
using FlatExtensionRef = std::shared_ptr<const FlatExtension>;

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_FLATTEN_H_
