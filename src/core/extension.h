#ifndef ORCHESTRA_CORE_EXTENSION_H_
#define ORCHESTRA_CORE_EXTENSION_H_

#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/transaction.h"

namespace orchestra::core {

/// Set of transaction ids with O(1) membership; used for applied /
/// rejected / extension sets.
using TxnIdSet = std::unordered_set<TransactionId, TransactionIdHash>;

/// Computes p_i's transaction extension te_i|e(X) (Definition 3): the
/// transitive closure of X's antecedents, stopping at transactions in
/// `already_applied` (accepted in an earlier reconciliation — their
/// effects are part of the instance and must not be replayed).
///
/// The result is sorted by the order of each transaction in ∆
/// (publication epoch, then originator, then sequence) and includes X
/// itself as the final element.
///
/// Fails with NotFound if an antecedent cannot be resolved by `provider`.
Result<std::vector<TransactionId>> ComputeExtension(
    const TransactionProvider& provider, const TransactionId& root,
    const TxnIdSet& already_applied);

/// Extension computation against a self-contained transaction bundle
/// (e.g. the closure shipped by an update store): antecedents absent
/// from the bundle are treated as already applied and terminate the
/// closure. Result is sorted like ComputeExtension.
std::vector<TransactionId> ComputeExtensionFromBundle(
    const TransactionMap& bundle, const TransactionId& root);

/// True if `outer` subsumes `inner`: outer's extension is a superset of
/// inner's (§4.2). Both vectors must be sorted by id (FlatExtension::
/// members), so the test is one merge.
bool Subsumes(const std::vector<TransactionId>& outer,
              const std::vector<TransactionId>& inner);

/// The members two id-sorted extensions share, id-sorted.
std::vector<TransactionId> SharedMembers(const std::vector<TransactionId>& a,
                                         const std::vector<TransactionId>& b);

/// uf(L): the concatenated update footprint of a transaction list, in
/// list order (the input must already be sorted by publication order).
/// Transactions in `exclude` (e.g. the Used set of Definition 5) are
/// skipped.
std::vector<Update> UpdateFootprint(const TransactionProvider& provider,
                                    const std::vector<TransactionId>& txns,
                                    const TxnIdSet& exclude = {});

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_EXTENSION_H_
