// Differential tests of the keyed analysis against naive references: the
// flattener's emitted keys against Update::TouchedKeys, the merge-based
// set conflict test against an all-pairs UpdatesConflict loop, and the
// merge-based subsumption / shared-member tests against hash sets. Inputs
// come from the flattening fuzz generator (key-moving modifies, deletes)
// plus copied agreeing updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/random.h"
#include "core/conflict.h"
#include "core/extension.h"
#include "core/flatten.h"
#include "core/random_updates.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::RandomStep;

class KeyedAnalysisTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // A base instance of up to six tuples, shared by every history of one
  // scenario so that independent histories contend for the same keys.
  db::Instance RandomBase(Rng& rng) {
    db::Instance base(&catalog_);
    auto table = base.GetTable("F");
    const size_t seeds = rng.NextBounded(6);
    for (size_t i = 0; i < seeds; ++i) {
      db::Tuple t{db::Value("org" + std::to_string(rng.NextBounded(3))),
                  db::Value("p" + std::to_string(i)),
                  db::Value("fn" + std::to_string(rng.NextBounded(6)))};
      (void)(*table)->Insert(t);
    }
    return base;
  }

  // A valid random history over `base`, by one origin.
  std::vector<Update> RandomHistory(Rng& rng, const db::Instance& base,
                                    ParticipantId origin) {
    db::Instance state = base;
    auto table = state.GetTable("F");
    std::vector<Update> sequence;
    const size_t steps = 1 + rng.NextBounded(16);
    for (size_t s = 0; s < steps; ++s) {
      auto step = RandomStep(rng, schema(), *table, 6);
      if (!step) continue;
      // Re-stamp the origin: RandomStep always writes origin 1.
      switch (step->kind()) {
        case UpdateKind::kInsert:
          sequence.push_back(
              Update::Insert("F", step->new_tuple(), origin));
          break;
        case UpdateKind::kDelete:
          sequence.push_back(
              Update::Delete("F", step->old_tuple(), origin));
          break;
        case UpdateKind::kModify:
          sequence.push_back(Update::Modify("F", step->old_tuple(),
                                            step->new_tuple(), origin));
          break;
      }
    }
    return sequence;
  }

  const db::RelationSchema& schema() { return **catalog_.GetRelation("F"); }

  db::Catalog catalog_ = MakeProteinCatalog();
};

// Every key the flattener emits is exactly Update::TouchedKeys of its
// update, hashed with RelKeyHash; the key list is sorted by (hash,
// update); and the output order is the documented (relation, key, kind
// descending) order, identical to plain Flatten.
TEST_P(KeyedAnalysisTest, FlattenerKeysMatchTouchedKeys) {
  Rng rng(GetParam());
  for (int scenario = 0; scenario < 60; ++scenario) {
    const db::Instance base = RandomBase(rng);
    const std::vector<Update> sequence = RandomHistory(rng, base, 1);
    auto keyed = FlattenKeyed(catalog_, sequence);
    auto plain = Flatten(catalog_, sequence);
    ASSERT_EQ(keyed.ok(), plain.ok());
    if (!keyed.ok()) continue;
    ASSERT_EQ(keyed->updates, *plain);
    ASSERT_EQ(keyed->slots.size(), keyed->updates.size());

    for (size_t u = 0; u < keyed->updates.size(); ++u) {
      std::vector<RelKey> emitted;
      keyed->ForEachTouched(u, [&](const KeyedUpdates::Key& k) {
        EXPECT_EQ(k.update, u);
        EXPECT_EQ(k.hash, RelKeyHash()(k.key));
        emitted.push_back(k.key);
      });
      EXPECT_EQ(emitted, keyed->updates[u].TouchedKeys(schema()))
          << "seed " << GetParam() << " scenario " << scenario;
    }
    size_t listed = 0;
    for (size_t u = 0; u < keyed->updates.size(); ++u) {
      listed += keyed->updates[u].TouchedKeys(schema()).size();
    }
    EXPECT_EQ(keyed->keys.size(), listed);
    EXPECT_TRUE(std::is_sorted(
        keyed->keys.begin(), keyed->keys.end(),
        [](const KeyedUpdates::Key& a, const KeyedUpdates::Key& b) {
          if (a.hash != b.hash) return a.hash < b.hash;
          return a.update < b.update;
        }));

    // Output order: strictly increasing (relation, touched key), then
    // kind descending — no ties, so the order is unique.
    auto sort_key = [&](const Update& x) {
      return x.is_delete() ? schema().KeyOf(x.old_tuple())
                           : schema().KeyOf(x.new_tuple());
    };
    for (size_t u = 1; u < keyed->updates.size(); ++u) {
      const Update& a = keyed->updates[u - 1];
      const Update& b = keyed->updates[u];
      const auto ka = std::make_tuple(a.relation(), sort_key(a),
                                      -static_cast<int>(a.kind()));
      const auto kb = std::make_tuple(b.relation(), sort_key(b),
                                      -static_cast<int>(b.kind()));
      EXPECT_LT(ka, kb) << "seed " << GetParam() << " scenario " << scenario;
    }

    // Keying the output anew gives the same key list.
    const KeyedUpdates rekeyed = KeyUpdates(catalog_, keyed->updates);
    ASSERT_EQ(rekeyed.keys.size(), keyed->keys.size());
    for (size_t k = 0; k < rekeyed.keys.size(); ++k) {
      EXPECT_EQ(rekeyed.keys[k].hash, keyed->keys[k].hash);
      EXPECT_EQ(rekeyed.keys[k].update, keyed->keys[k].update);
      EXPECT_EQ(rekeyed.keys[k].key, keyed->keys[k].key);
    }
  }
}

// The keyed merge finds exactly the conflict points of testing every
// update pair with UpdatesConflict.
TEST_P(KeyedAnalysisTest, PairTestMatchesAllPairsReference) {
  Rng rng(GetParam());
  size_t conflicting = 0;
  size_t agreeing = 0;
  for (int scenario = 0; scenario < 80; ++scenario) {
    const db::Instance base = RandomBase(rng);
    auto flat_a = FlattenKeyed(catalog_, RandomHistory(rng, base, 1));
    auto flat_b = Flatten(catalog_, RandomHistory(rng, base, 2));
    ASSERT_TRUE(flat_a.ok());
    ASSERT_TRUE(flat_b.ok());
    // Agreeing duplicates: some of a's net updates, made by b as well.
    std::vector<Update> b = *flat_b;
    for (const Update& u : flat_a->updates) {
      if (!rng.NextBool(0.3)) continue;
      ++agreeing;
      switch (u.kind()) {
        case UpdateKind::kInsert:
          b.push_back(Update::Insert("F", u.new_tuple(), 2));
          break;
        case UpdateKind::kDelete:
          b.push_back(Update::Delete("F", u.old_tuple(), 2));
          break;
        case UpdateKind::kModify:
          b.push_back(Update::Modify("F", u.old_tuple(), u.new_tuple(), 2));
          break;
      }
    }

    std::set<ConflictPoint> reference;
    for (const Update& x : flat_a->updates) {
      for (const Update& y : b) {
        if (auto cp = UpdatesConflict(schema(), x, y)) reference.insert(*cp);
      }
    }
    const std::vector<ConflictPoint> expected(reference.begin(),
                                              reference.end());
    const KeyedUpdates keyed_b = KeyUpdates(catalog_, b);
    EXPECT_EQ(SetsConflict(*flat_a, keyed_b), expected)
        << "seed " << GetParam() << " scenario " << scenario;
    // The conflict relation is symmetric.
    EXPECT_EQ(SetsConflict(keyed_b, *flat_a), expected);
    if (!expected.empty()) ++conflicting;
  }
  // The generator must actually exercise both outcomes.
  EXPECT_GT(conflicting, 0u);
  EXPECT_GT(agreeing, 0u);
}

// Merge-based Subsumes / SharedMembers over id-sorted extensions agree
// with hash-set membership on random extensions, subsets included.
TEST_P(KeyedAnalysisTest, MergeSetTestsMatchHashSets) {
  Rng rng(GetParam());
  auto random_ext = [&](size_t max_size) {
    std::set<TransactionId> ids;
    const size_t size = rng.NextBounded(max_size + 1);
    while (ids.size() < size) {
      ids.insert(TransactionId{static_cast<ParticipantId>(rng.NextBounded(3)),
                               rng.NextBounded(5)});
    }
    return std::vector<TransactionId>(ids.begin(), ids.end());
  };
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<TransactionId> a = random_ext(8);
    std::vector<TransactionId> b = random_ext(8);
    if (rng.NextBool(0.3)) {
      // A subset of a.
      b.clear();
      for (const TransactionId& id : a) {
        if (rng.NextBool(0.6)) b.push_back(id);
      }
    }
    const TxnIdSet set_a(a.begin(), a.end());
    const TxnIdSet set_b(b.begin(), b.end());
    auto hash_subsumes = [](const std::vector<TransactionId>& outer,
                            const TxnIdSet& outer_set,
                            const std::vector<TransactionId>& inner) {
      if (inner.size() > outer.size()) return false;
      return std::all_of(inner.begin(), inner.end(),
                         [&](const TransactionId& id) {
                           return outer_set.count(id) != 0;
                         });
    };
    EXPECT_EQ(Subsumes(a, b), hash_subsumes(a, set_a, b));
    EXPECT_EQ(Subsumes(b, a), hash_subsumes(b, set_b, a));

    std::vector<TransactionId> hash_shared;
    for (const TransactionId& id : b) {
      if (set_a.count(id) != 0) hash_shared.push_back(id);
    }
    std::sort(hash_shared.begin(), hash_shared.end());
    EXPECT_EQ(SharedMembers(a, b), hash_shared);
    EXPECT_EQ(SharedMembers(b, a), hash_shared);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyedAnalysisTest,
                         ::testing::Range<uint64_t>(200, 208));

}  // namespace
}  // namespace orchestra::core
