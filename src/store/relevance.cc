#include "store/relevance.h"

#include <algorithm>

#include "common/check.h"
#include "core/extension.h"

namespace orchestra::store {

bool Ships(bool root, Verdict verdict, int priority) {
  if (root) return verdict == Verdict::kUndecided && priority > 0;
  return verdict != Verdict::kApplied;
}

Result<RelevantClosure> WalkRelevantClosure(
    const core::TrustPolicy& policy,
    const std::vector<core::TransactionId>& roots,
    const KnownVerdictFn& known, const LookupLevelFn& lookup_level) {
  RelevantClosure out;
  core::TxnIdSet shipped;
  core::TxnIdSet applied;  // ids a lookup found applied
  std::vector<LevelEntry> frontier;
  for (size_t i = 0; i < roots.size(); ++i) {
    frontier.push_back({roots[i], /*root=*/true, i});
  }
  while (!frontier.empty()) {
    std::vector<LevelEntry> level;
    core::TxnIdSet in_level;
    for (const LevelEntry& entry : frontier) {
      if (shipped.count(entry.id) != 0) continue;
      // A known verdict is never kUndecided, so no priority is needed.
      const std::optional<Verdict> verdict =
          known ? known(entry.id) : std::nullopt;
      if (verdict.has_value() && !Ships(entry.root, *verdict, 0)) continue;
      if (applied.count(entry.id) != 0) continue;
      if (in_level.insert(entry.id).second) level.push_back(entry);
    }
    frontier.clear();
    if (level.empty()) break;

    // Per entry: its root priority when it ships, else -1.
    std::vector<int> ship_priority(level.size(), -1);
    const DecideFn decide = [&](size_t i, Verdict verdict,
                                const core::Transaction* stored) {
      int priority = 0;
      if (level[i].root && verdict == Verdict::kUndecided) {
        ORCH_CHECK(stored != nullptr, "a root's priority needs its txn");
        priority = policy.PriorityOfTransaction(*stored);
      }
      if (verdict == Verdict::kApplied) applied.insert(level[i].id);
      if (!Ships(level[i].root, verdict, priority)) return false;
      ship_priority[i] = priority;
      return true;
    };
    std::vector<core::Transaction> delivered;
    ORCH_RETURN_IF_ERROR(lookup_level(level, decide, &delivered));
    auto txn = delivered.begin();
    for (size_t i = 0; i < level.size(); ++i) {
      if (ship_priority[i] < 0) continue;
      ORCH_CHECK(txn != delivered.end(), "a decided shipment is missing");
      shipped.insert(level[i].id);
      if (level[i].root) out.roots.emplace_back(level[i].id, ship_priority[i]);
      for (const core::TransactionId& ante : txn->antecedents) {
        frontier.push_back({ante, /*root=*/false, 0});
      }
      out.transactions.push_back(std::move(*txn++));
    }
    ORCH_CHECK(txn == delivered.end(), "shipped more than was decided");
  }
  return out;
}

void SortByPublication(std::vector<core::Transaction>* txns) {
  std::sort(txns->begin(), txns->end(),
            [](const core::Transaction& a, const core::Transaction& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              return a.id < b.id;
            });
}

}  // namespace orchestra::store
