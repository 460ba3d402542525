#include "core/extension.h"

#include <algorithm>
#include <iterator>

namespace orchestra::core {

Result<std::vector<TransactionId>> ComputeExtension(
    const TransactionProvider& provider, const TransactionId& root,
    const TxnIdSet& already_applied) {
  std::vector<TransactionId> result;
  TxnIdSet visited;
  std::vector<TransactionId> frontier{root};
  visited.insert(root);
  std::vector<std::pair<Epoch, TransactionId>> with_epochs;
  while (!frontier.empty()) {
    const TransactionId id = frontier.back();
    frontier.pop_back();
    ORCH_ASSIGN_OR_RETURN(const Transaction* txn, provider.Get(id));
    with_epochs.emplace_back(txn->epoch, id);
    for (const TransactionId& ante : txn->antecedents) {
      if (already_applied.count(ante) != 0) continue;  // Definition 3 stop
      if (visited.insert(ante).second) frontier.push_back(ante);
    }
  }
  // Sort by order of appearance in ∆: epoch, then originator, then local
  // sequence number (ids are assigned in increasing order, §3.2).
  std::sort(with_epochs.begin(), with_epochs.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  result.reserve(with_epochs.size());
  for (const auto& [epoch, id] : with_epochs) result.push_back(id);
  return result;
}

std::vector<TransactionId> ComputeExtensionFromBundle(
    const TransactionMap& bundle, const TransactionId& root) {
  std::vector<std::pair<Epoch, TransactionId>> with_epochs;
  TxnIdSet visited;
  std::vector<TransactionId> frontier{root};
  visited.insert(root);
  while (!frontier.empty()) {
    const TransactionId id = frontier.back();
    frontier.pop_back();
    auto txn = bundle.Get(id);
    if (!txn.ok()) continue;  // outside the bundle: already applied
    with_epochs.emplace_back((*txn)->epoch, id);
    for (const TransactionId& ante : (*txn)->antecedents) {
      if (bundle.Contains(ante) && visited.insert(ante).second) {
        frontier.push_back(ante);
      }
    }
  }
  std::sort(with_epochs.begin(), with_epochs.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  std::vector<TransactionId> result;
  result.reserve(with_epochs.size());
  for (const auto& [epoch, id] : with_epochs) result.push_back(id);
  return result;
}

bool Subsumes(const std::vector<TransactionId>& outer,
              const std::vector<TransactionId>& inner) {
  if (inner.size() > outer.size()) return false;
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

std::vector<TransactionId> SharedMembers(const std::vector<TransactionId>& a,
                                         const std::vector<TransactionId>& b) {
  std::vector<TransactionId> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  return shared;
}

std::vector<Update> UpdateFootprint(const TransactionProvider& provider,
                                    const std::vector<TransactionId>& txns,
                                    const TxnIdSet& exclude) {
  std::vector<Update> out;
  for (const TransactionId& id : txns) {
    if (exclude.count(id) != 0) continue;
    auto txn = provider.Get(id);
    if (!txn.ok()) continue;  // resolved during ComputeExtension; defensive
    for (const Update& u : (*txn)->updates) out.push_back(u);
  }
  return out;
}

}  // namespace orchestra::core
