#include "core/conflict.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Del;
using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;

class ConflictTest : public ::testing::Test {
 protected:
  db::Catalog catalog_ = MakeProteinCatalog();
  const db::RelationSchema& schema() {
    return **catalog_.GetRelation("F");
  }

  std::optional<ConflictPoint> Check(const Update& a, const Update& b) {
    auto ab = UpdatesConflict(schema(), a, b);
    auto ba = UpdatesConflict(schema(), b, a);
    // The conflict relation is symmetric.
    EXPECT_EQ(ab.has_value(), ba.has_value());
    if (ab && ba) {
      EXPECT_EQ(*ab, *ba);
    }
    return ab;
  }
};

TEST_F(ConflictTest, InsertInsertSameKeyDifferentValueConflicts) {
  auto cp = Check(Ins("rat", "p1", "immune", 2), Ins("rat", "p1", "metab", 3));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kInsertInsert);
  EXPECT_EQ(cp->key.relation, "F");
}

TEST_F(ConflictTest, IdenticalInsertsAgree) {
  EXPECT_FALSE(
      Check(Ins("rat", "p1", "immune", 2), Ins("rat", "p1", "immune", 3)));
}

TEST_F(ConflictTest, InsertsOnDifferentKeysCompatible) {
  EXPECT_FALSE(Check(Ins("rat", "p1", "x", 1), Ins("rat", "p2", "x", 2)));
  EXPECT_FALSE(Check(Ins("rat", "p1", "x", 1), Ins("mouse", "p1", "x", 2)));
}

TEST_F(ConflictTest, DeleteVsInsertSameKeyConflicts) {
  auto cp = Check(Del("rat", "p1", "immune", 2), Ins("rat", "p1", "metab", 3));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kDeleteVsWrite);
}

TEST_F(ConflictTest, DeleteVsModifySourceConflicts) {
  auto cp =
      Check(Del("rat", "p1", "immune", 2), Mod("rat", "p1", "immune", "x", 3));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kDeleteVsWrite);
}

TEST_F(ConflictTest, DeleteVsModifyTargetConflicts) {
  // p3 deletes (rat,p1); p2 moves (rat,p2) onto key (rat,p1).
  auto cp = Check(Del("rat", "p1", "immune", 3),
                  Update::Modify("F", testing::T({"rat", "p2", "x"}),
                                 testing::T({"rat", "p1", "x"}), 2));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kDeleteVsWrite);
}

TEST_F(ConflictTest, DeleteVsUnrelatedWriteCompatible) {
  EXPECT_FALSE(Check(Del("rat", "p1", "x", 1), Ins("rat", "p2", "y", 2)));
  EXPECT_FALSE(Check(Del("rat", "p1", "x", 1), Mod("rat", "p2", "y", "z", 2)));
}

TEST_F(ConflictTest, DeletesAgree) {
  EXPECT_FALSE(Check(Del("rat", "p1", "x", 1), Del("rat", "p1", "x", 2)));
}

TEST_F(ConflictTest, ReplaceReplaceSameSourceDifferentTargetConflicts) {
  auto cp =
      Check(Mod("rat", "p1", "a", "b", 1), Mod("rat", "p1", "a", "c", 2));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kReplaceReplace);
}

TEST_F(ConflictTest, IdenticalReplacementsAgree) {
  EXPECT_FALSE(
      Check(Mod("rat", "p1", "a", "b", 1), Mod("rat", "p1", "a", "b", 2)));
}

TEST_F(ConflictTest, ReplaceSameKeyDifferentSourceConflicts) {
  // Divergent beliefs about the tuple's current value.
  auto cp =
      Check(Mod("rat", "p1", "a", "c", 1), Mod("rat", "p1", "b", "c", 2));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kReplaceReplace);
}

TEST_F(ConflictTest, ModifiesConvergingOnOneKeyConflict) {
  auto cp = Check(Update::Modify("F", testing::T({"rat", "p2", "x"}),
                                 testing::T({"rat", "p1", "x"}), 1),
                  Update::Modify("F", testing::T({"rat", "p3", "y"}),
                                 testing::T({"rat", "p1", "y"}), 2));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kKeyCollision);
}

TEST_F(ConflictTest, InsertVsModifyIntoSameKeyConflicts) {
  auto cp = Check(Ins("rat", "p1", "x", 1),
                  Update::Modify("F", testing::T({"rat", "p2", "x"}),
                                 testing::T({"rat", "p1", "x"}), 2));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->type, ConflictType::kKeyCollision);
}

TEST_F(ConflictTest, InsertVsModifyOfDifferentKeysCompatible) {
  EXPECT_FALSE(Check(Ins("rat", "p1", "x", 1), Mod("rat", "p2", "a", "b", 2)));
}

TEST_F(ConflictTest, DifferentRelationsNeverConflict) {
  db::Catalog catalog = MakeProteinCatalog();
  auto other = db::RelationSchema::Make(
      "G",
      {{"organism", db::ValueType::kString, false},
       {"protein", db::ValueType::kString, false},
       {"function", db::ValueType::kString, false}},
      {0, 1});
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(catalog.AddRelation(*std::move(other)).ok());
  const Update a = Ins("rat", "p1", "x", 1);
  const Update b = Update::Insert("G", testing::T({"rat", "p1", "y"}), 2);
  EXPECT_FALSE(UpdatesConflict(**catalog.GetRelation("F"), a, b));
}

TEST_F(ConflictTest, SetsConflictFindsAllPoints) {
  const std::vector<Update> a = {Ins("rat", "p1", "x", 1),
                                 Ins("mouse", "p2", "y", 1),
                                 Mod("rat", "p3", "a", "b", 1)};
  const std::vector<Update> b = {Ins("rat", "p1", "z", 2),   // conflict
                                 Ins("mouse", "p2", "y", 2),  // agree
                                 Mod("rat", "p3", "a", "c", 2)};  // conflict
  auto points = SetsConflict(KeyUpdates(catalog_, a), KeyUpdates(catalog_, b));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].type, ConflictType::kInsertInsert);
  EXPECT_EQ(points[1].type, ConflictType::kReplaceReplace);
}

TEST_F(ConflictTest, SetsConflictEmptyInputs) {
  const KeyedUpdates one = KeyUpdates(catalog_, {Ins("rat", "p1", "x", 1)});
  EXPECT_TRUE(SetsConflict(KeyedUpdates{}, one).empty());
  EXPECT_TRUE(SetsConflict(one, KeyedUpdates{}).empty());
}

TEST_F(ConflictTest, SetsConflictDeduplicatesPoints) {
  // Two updates in `a` touching the same contested key yield one point.
  const std::vector<Update> a = {Del("rat", "p1", "x", 1)};
  const std::vector<Update> b = {Ins("rat", "p1", "y", 2)};
  EXPECT_EQ(
      SetsConflict(KeyUpdates(catalog_, a), KeyUpdates(catalog_, b)).size(),
      1u);
}

TEST_F(ConflictTest, ConflictPointOrderingAndNames) {
  EXPECT_EQ(ConflictTypeName(ConflictType::kInsertInsert), "insert/insert");
  EXPECT_EQ(ConflictTypeName(ConflictType::kDeleteVsWrite), "delete/write");
  EXPECT_EQ(ConflictTypeName(ConflictType::kReplaceReplace),
            "replace/replace");
  EXPECT_EQ(ConflictTypeName(ConflictType::kKeyCollision), "key-collision");
  const ConflictPoint p1{ConflictType::kInsertInsert,
                         RelKey{"F", testing::T({"a"})}};
  const ConflictPoint p2{ConflictType::kDeleteVsWrite,
                         RelKey{"F", testing::T({"a"})}};
  EXPECT_LT(p1, p2);
  EXPECT_NE(p1.ToString(), p2.ToString());
}

}  // namespace
}  // namespace orchestra::core
