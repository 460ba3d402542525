// The §5.2 relevance-and-closure walk (store/relevance.h), driven by a
// fake level lookup instead of a store: the rule itself, the walk's
// dedupe and suppression, and its output order.
#include "store/relevance.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/extension.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::Transaction;
using core::TransactionId;
using core::TrustPolicy;
using orchestra::testing::Ins;
using orchestra::testing::Txn;

/// An in-memory stand-in for a store's access path: every transaction
/// with the reconciling peer's recorded verdict, and a log of lookups.
class FakeLevels {
 public:
  void Add(Transaction txn, Verdict verdict = Verdict::kUndecided) {
    verdicts_[txn.id] = verdict;
    txns_[txn.id] = std::move(txn);
  }

  LookupLevelFn Lookup() {
    return [this](const std::vector<LevelEntry>& level, const DecideFn& decide,
                  std::vector<Transaction>* shipped) -> Status {
      for (size_t i = 0; i < level.size(); ++i) {
        lookups.emplace_back(level[i].id, level[i].root);
        const Transaction& txn = txns_.at(level[i].id);
        // Like the central store, load an antecedent only once it ships.
        const Transaction* stored = level[i].root ? &txn : nullptr;
        if (decide(i, verdicts_.at(level[i].id), stored)) {
          shipped->push_back(txn);
        }
      }
      return Status::OK();
    };
  }

  Result<RelevantClosure> Walk(const TrustPolicy& policy,
                               const std::vector<TransactionId>& roots,
                               const KnownVerdictFn& known = nullptr) {
    return WalkRelevantClosure(policy, roots, known, Lookup());
  }

  std::vector<std::pair<TransactionId, bool>> lookups;  // (id, root)

 private:
  std::map<TransactionId, Transaction> txns_;
  std::map<TransactionId, Verdict> verdicts_;
};

std::vector<TransactionId> Ids(const std::vector<Transaction>& txns) {
  std::vector<TransactionId> ids;
  for (const Transaction& txn : txns) ids.push_back(txn.id);
  return ids;
}

/// Peer 9 trusts peer 2 (priority 1) and peer 3 (priority 2), not 1.
TrustPolicy Peer9Policy() {
  TrustPolicy policy(9);
  policy.TrustPeer(2, 1);
  policy.TrustPeer(3, 2);
  return policy;
}

const TransactionId kA{1, 0};
const TransactionId kB{2, 0};
const TransactionId kC{2, 1};
const TransactionId kD{3, 0};

TEST(RelevanceRuleTest, RootsNeedNoVerdictAndTrust) {
  EXPECT_TRUE(Ships(/*root=*/true, Verdict::kUndecided, 1));
  EXPECT_FALSE(Ships(true, Verdict::kUndecided, 0));
  EXPECT_FALSE(Ships(true, Verdict::kRejected, 1));
  EXPECT_FALSE(Ships(true, Verdict::kApplied, 1));
}

TEST(RelevanceRuleTest, AntecedentsShipUnlessApplied) {
  EXPECT_TRUE(Ships(/*root=*/false, Verdict::kUndecided, 0));
  EXPECT_TRUE(Ships(false, Verdict::kRejected, 0));
  EXPECT_FALSE(Ships(false, Verdict::kApplied, 0));
}

TEST(RelevanceWalkTest, UntrustedRootReachedAsAntecedentShips) {
  FakeLevels levels;
  levels.Add(Txn(1, 0, {Ins("rat", "p1", "a", 1)}));
  levels.Add(Txn(2, 0, {Ins("rat", "p2", "b", 2)}, {kA}));
  auto closure = levels.Walk(Peer9Policy(), {kA, kB});
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_EQ(closure->roots,
            (std::vector<std::pair<TransactionId, int>>{{kB, 1}}));
  EXPECT_EQ(Ids(closure->transactions), (std::vector<TransactionId>{kB, kA}));
  EXPECT_EQ(levels.lookups,
            (std::vector<std::pair<TransactionId, bool>>{
                {kA, true}, {kB, true}, {kA, false}}));
}

TEST(RelevanceWalkTest, RejectedRootReachedAsAntecedentShips) {
  FakeLevels levels;
  levels.Add(Txn(2, 0, {Ins("rat", "p1", "a", 2)}), Verdict::kRejected);
  levels.Add(Txn(2, 1, {Ins("rat", "p2", "b", 2)}, {kB}));
  auto closure = levels.Walk(Peer9Policy(), {kB, kC});
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_EQ(closure->roots,
            (std::vector<std::pair<TransactionId, int>>{{kC, 1}}));
  EXPECT_EQ(Ids(closure->transactions), (std::vector<TransactionId>{kC, kB}));
}

TEST(RelevanceWalkTest, AppliedIdNeverShipsAndIsLookedUpOnce) {
  FakeLevels levels;
  levels.Add(Txn(2, 0, {Ins("rat", "p1", "a", 2)}), Verdict::kApplied);
  levels.Add(Txn(2, 1, {Ins("rat", "p2", "b", 2)}, {kB}));
  levels.Add(Txn(3, 0, {Ins("rat", "p3", "c", 3)}, {kB, kC}));
  auto closure = levels.Walk(Peer9Policy(), {kB, kC, kD});
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_EQ(Ids(closure->transactions), (std::vector<TransactionId>{kC, kD}));
  EXPECT_EQ(closure->roots,
            (std::vector<std::pair<TransactionId, int>>{{kC, 1}, {kD, 2}}));
  // kB was found applied as a root; reaching it twice more as an
  // antecedent asks the store nothing.
  EXPECT_EQ(levels.lookups,
            (std::vector<std::pair<TransactionId, bool>>{
                {kB, true}, {kC, true}, {kD, true}}));
}

TEST(RelevanceWalkTest, KnownAppliedSuppressionSkipsTheLookup) {
  FakeLevels levels;
  levels.Add(Txn(2, 0, {Ins("rat", "p1", "a", 2)}), Verdict::kApplied);
  levels.Add(Txn(2, 1, {Ins("rat", "p2", "b", 2)}, {kB}));
  int asked = 0;
  const KnownVerdictFn known =
      [&](const TransactionId& id) -> std::optional<Verdict> {
    ++asked;
    if (id == kB) return Verdict::kApplied;
    return std::nullopt;
  };
  auto closure = levels.Walk(Peer9Policy(), {kB, kC}, known);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_EQ(Ids(closure->transactions), (std::vector<TransactionId>{kC}));
  EXPECT_EQ(levels.lookups,
            (std::vector<std::pair<TransactionId, bool>>{{kC, true}}));
  // Once per occurrence that has not shipped: kB, kC as roots, then kB
  // as kC's antecedent.
  EXPECT_EQ(asked, 3);
}

TEST(RelevanceWalkTest, KnownRejectionSkipsRootsButNotAntecedents) {
  FakeLevels levels;
  levels.Add(Txn(2, 0, {Ins("rat", "p1", "a", 2)}), Verdict::kRejected);
  levels.Add(Txn(2, 1, {Ins("rat", "p2", "b", 2)}, {kB}));
  const KnownVerdictFn known =
      [&](const TransactionId& id) -> std::optional<Verdict> {
    if (id == kB) return Verdict::kRejected;
    return std::nullopt;
  };
  auto closure = levels.Walk(Peer9Policy(), {kB, kC}, known);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_EQ(Ids(closure->transactions), (std::vector<TransactionId>{kC, kB}));
  EXPECT_EQ(levels.lookups,
            (std::vector<std::pair<TransactionId, bool>>{{kC, true},
                                                          {kB, false}}));
}

TEST(RelevanceWalkTest, EachIdShipsOnce) {
  // A diamond: kD depends on kB and kC, both of which depend on kA; kD
  // also names kB twice.
  FakeLevels levels;
  levels.Add(Txn(1, 0, {Ins("rat", "p1", "a", 1)}));
  levels.Add(Txn(2, 0, {Ins("rat", "p2", "b", 2)}, {kA}));
  levels.Add(Txn(2, 1, {Ins("rat", "p3", "c", 2)}, {kA}));
  levels.Add(Txn(3, 0, {Ins("rat", "p4", "d", 3)}, {kB, kC, kB}));
  auto closure = levels.Walk(Peer9Policy(), {kD});
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_EQ(Ids(closure->transactions),
            (std::vector<TransactionId>{kD, kB, kC, kA}));
  EXPECT_EQ(levels.lookups.size(), 4u);
}

TEST(RelevanceWalkTest, LookupErrorsPropagate) {
  const LookupLevelFn failing = [](const std::vector<LevelEntry>&,
                                   const DecideFn&,
                                   std::vector<Transaction>*) -> Status {
    return Status::Unavailable("controller unreachable");
  };
  auto closure = WalkRelevantClosure(Peer9Policy(), {kA}, nullptr, failing);
  EXPECT_EQ(closure.status().code(), StatusCode::kUnavailable);
}

/// The central store's fetch loop as it stood before the walk was
/// factored out: roots in window order, then a FIFO of antecedents.
RelevantClosure CentralFifoReference(
    const TrustPolicy& policy, const std::vector<TransactionId>& roots,
    const std::map<TransactionId, Transaction>& txns,
    const std::map<TransactionId, Verdict>& verdicts) {
  RelevantClosure out;
  core::TxnIdSet shipped;
  std::deque<TransactionId> pending;
  for (const TransactionId& id : roots) {
    if (verdicts.at(id) != Verdict::kUndecided) continue;
    const int priority = policy.PriorityOfTransaction(txns.at(id));
    if (priority <= 0) continue;
    out.roots.emplace_back(id, priority);
    if (shipped.insert(id).second) {
      out.transactions.push_back(txns.at(id));
      for (const TransactionId& ante : txns.at(id).antecedents) {
        pending.push_back(ante);
      }
    }
  }
  while (!pending.empty()) {
    const TransactionId id = pending.front();
    pending.pop_front();
    if (shipped.count(id) != 0) continue;
    if (verdicts.at(id) == Verdict::kApplied) continue;
    shipped.insert(id);
    for (const TransactionId& ante : txns.at(id).antecedents) {
      pending.push_back(ante);
    }
    out.transactions.push_back(txns.at(id));
  }
  return out;
}

TEST(RelevanceWalkTest, OrderMatchesTheCentralFifoLoop) {
  // Random antecedent DAGs over three origins (one untrusted) with
  // random verdicts: the walk ships exactly what the central FIFO loop
  // shipped, in the same order.
  const TrustPolicy policy = Peer9Policy();
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 24);
    std::map<TransactionId, Transaction> txns;
    std::map<TransactionId, Verdict> verdicts;
    std::vector<TransactionId> ids;
    FakeLevels levels;
    for (int i = 0; i < n; ++i) {
      const auto origin = static_cast<core::ParticipantId>(1 + rng() % 3);
      std::vector<TransactionId> antecedents;
      for (int edges = static_cast<int>(rng() % 3); edges > 0 && i > 0;
           --edges) {
        antecedents.push_back(ids[rng() % ids.size()]);
      }
      Transaction txn = Txn(origin, static_cast<uint64_t>(i),
                            {Ins("rat", "p", "f", origin)}, antecedents);
      const Verdict verdict = static_cast<Verdict>(rng() % 3);
      ids.push_back(txn.id);
      txns[txn.id] = txn;
      verdicts[txn.id] = verdict;
      levels.Add(txn, verdict);
    }
    // The window is a suffix of the history; antecedents reach back.
    const size_t window_start = rng() % ids.size();
    const std::vector<TransactionId> roots(ids.begin() + window_start,
                                           ids.end());
    const RelevantClosure expected =
        CentralFifoReference(policy, roots, txns, verdicts);
    auto closure = levels.Walk(policy, roots);
    ASSERT_TRUE(closure.ok()) << closure.status().ToString();
    EXPECT_EQ(closure->roots, expected.roots) << "trial " << trial;
    EXPECT_EQ(Ids(closure->transactions), Ids(expected.transactions))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace orchestra::store
