#include "core/flatten_cache.h"

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/extension.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;
using orchestra::testing::T;
using orchestra::testing::Txn;

TEST(FlattenCacheTest, FingerprintIsOrderAndContentSensitive) {
  const std::vector<TransactionId> a{{1, 0}, {1, 1}};
  const std::vector<TransactionId> b{{1, 1}, {1, 0}};
  const std::vector<TransactionId> c{{1, 0}};
  const uint64_t fa = FlattenCache::ExtensionFingerprint(a);
  EXPECT_EQ(fa, FlattenCache::ExtensionFingerprint(a));
  EXPECT_NE(fa, FlattenCache::ExtensionFingerprint(b));
  EXPECT_NE(fa, FlattenCache::ExtensionFingerprint(c));
}

TEST(FlattenCacheTest, FlatEntryHitRequiresMatchingFingerprint) {
  FlattenCache cache;
  const TransactionId root{1, 0};
  auto ext = std::make_shared<FlatExtension>();
  ext->ok = true;
  cache.PutFlat(root, 42, ext);
  const FlatExtensionRef* hit = cache.FindFlat(root, 42);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE((*hit)->ok);
  EXPECT_EQ(hit->get(), ext.get());  // shared, not copied
  // A reconsidered transaction whose extension changed (e.g. an
  // antecedent was applied since) carries a new fingerprint — miss.
  EXPECT_EQ(cache.FindFlat(root, 43), nullptr);
  EXPECT_EQ(cache.FindFlat(TransactionId{2, 0}, 42), nullptr);
  EXPECT_EQ(cache.stats().flat_hits, 1u);
  EXPECT_EQ(cache.stats().flat_misses, 2u);
}

TEST(FlattenCacheTest, PairVerdictValidatedAgainstBothSides) {
  FlattenCache cache;
  const TransactionId a{1, 0}, b{2, 0};
  FlattenCache::PairVerdict verdict;
  verdict.fp_a = 7;
  verdict.fp_b = 9;
  verdict.points = {ConflictPoint{ConflictType::kInsertInsert,
                                  RelKey{"F", T({"rat", "p1"})}}};
  cache.PutPair(a, b, verdict);
  ASSERT_NE(cache.FindPair(a, b, 7, 9), nullptr);
  EXPECT_EQ(cache.FindPair(a, b, 7, 9)->points.size(), 1u);
  EXPECT_EQ(cache.FindPair(a, b, 8, 9), nullptr);  // left side changed
  EXPECT_EQ(cache.FindPair(a, b, 7, 8), nullptr);  // right side changed
}

TEST(FlattenCacheTest, InvalidateDropsEveryEntryMentioningRoot) {
  FlattenCache cache;
  const TransactionId a{1, 0}, b{2, 0}, c{3, 0};
  const auto ext = std::make_shared<FlatExtension>();
  cache.PutFlat(a, 1, ext);
  cache.PutFlat(b, 2, ext);
  cache.PutFlat(c, 3, ext);
  cache.PutPair(a, b, {});
  cache.PutPair(b, c, {});
  cache.PutPair(a, c, {});
  cache.Invalidate({b});
  EXPECT_EQ(cache.flat_entries(), 2u);
  EXPECT_EQ(cache.pair_entries(), 1u);  // only (a, c) survives
  EXPECT_EQ(cache.FindFlat(b, 2), nullptr);
  EXPECT_NE(cache.FindPair(a, c, 0, 0), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.flat_entries(), 0u);
  EXPECT_EQ(cache.pair_entries(), 0u);
}

class CachedAnalysisTest : public ::testing::Test {
 protected:
  TrustedTxn Trusted(TransactionId id) {
    TrustedTxn t;
    t.id = id;
    t.priority = 1;
    auto ext = ComputeExtension(map_, id, applied_);
    ORCH_CHECK(ext.ok());
    t.extension = *std::move(ext);
    return t;
  }

  db::Catalog catalog_ = MakeProteinCatalog();
  TransactionMap map_;
  TxnIdSet applied_;
};

TEST_F(CachedAnalysisTest, WarmRoundHitsAndMatchesColdRound) {
  // Two conflicting writers plus an independent one.
  map_.Put(Txn(1, 0, {Ins("rat", "p1", "left", 1)}, {}, 1));
  map_.Put(Txn(2, 0, {Ins("rat", "p1", "right", 2)}, {}, 1));
  map_.Put(Txn(3, 0, {Ins("rat", "p9", "solo", 3)}, {}, 1));
  std::vector<TrustedTxn> txns{Trusted({1, 0}), Trusted({2, 0}),
                               Trusted({3, 0})};

  FlattenCache cache;
  AnalysisOptions cached;
  cached.cache = &cache;
  ReconcileAnalysis cold = AnalyzeExtensions(catalog_, map_, txns, cached);
  EXPECT_EQ(cache.stats().flat_hits, 0u);
  EXPECT_EQ(cache.flat_entries(), 3u);
  ASSERT_EQ(cold.conflicts.size(), 1u);

  ReconcileAnalysis warm = AnalyzeExtensions(catalog_, map_, txns, cached);
  EXPECT_EQ(cache.stats().flat_hits, 3u);
  EXPECT_GE(cache.stats().pair_hits, 1u);
  ReconcileAnalysis fresh = AnalyzeExtensions(catalog_, map_, txns);
  ASSERT_EQ(warm.conflicts.size(), fresh.conflicts.size());
  EXPECT_EQ(warm.conflicts[0].i, fresh.conflicts[0].i);
  EXPECT_EQ(warm.conflicts[0].j, fresh.conflicts[0].j);
  EXPECT_EQ(warm.conflicts[0].points, fresh.conflicts[0].points);
  ASSERT_EQ(warm.up_ex.size(), fresh.up_ex.size());
  for (size_t i = 0; i < warm.up_ex.size(); ++i) {
    EXPECT_EQ(warm.up_ex[i], cold.up_ex[i]);  // a hit shares the entry
    EXPECT_EQ(warm.up_ex[i]->ok, fresh.up_ex[i]->ok);
    EXPECT_EQ(warm.up_ex[i]->updates, fresh.up_ex[i]->updates);
    EXPECT_EQ(warm.up_ex[i]->members, fresh.up_ex[i]->members);
  }
}

TEST_F(CachedAnalysisTest, ChangedExtensionInvalidatesNaturally) {
  // Root with an antecedent chain; after the antecedent is applied the
  // extension shrinks, so the cached flattening must not be reused.
  map_.Put(Txn(1, 0, {Ins("rat", "p1", "v0", 1)}, {}, 1));
  map_.Put(Txn(1, 1, {Mod("rat", "p1", "v0", "v1", 1)}, {{1, 0}}, 2));

  FlattenCache cache;
  AnalysisOptions cached;
  cached.cache = &cache;
  std::vector<TrustedTxn> txns{Trusted({1, 1})};
  ASSERT_EQ(txns[0].extension.size(), 2u);
  ReconcileAnalysis before = AnalyzeExtensions(catalog_, map_, txns, cached);
  ASSERT_TRUE(before.up_ex[0]->ok);
  // Full extension flattens to the net insert of v1.
  ASSERT_EQ(before.up_ex[0]->updates.size(), 1u);
  EXPECT_TRUE(before.up_ex[0]->updates[0].is_insert());

  applied_.insert({1, 0});
  std::vector<TrustedTxn> shrunk{Trusted({1, 1})};
  ASSERT_EQ(shrunk[0].extension.size(), 1u);
  cache.ResetStats();
  ReconcileAnalysis after = AnalyzeExtensions(catalog_, map_, shrunk, cached);
  EXPECT_EQ(cache.stats().flat_hits, 0u);  // fingerprint mismatch
  ASSERT_TRUE(after.up_ex[0]->ok);
  // Now only the root's own modify remains.
  ASSERT_EQ(after.up_ex[0]->updates.size(), 1u);
  EXPECT_TRUE(after.up_ex[0]->updates[0].is_modify());
}

}  // namespace
}  // namespace orchestra::core
