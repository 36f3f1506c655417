// Tests for evrec/store: the id-indexed representation table (round trips
// per kind, kinds kept apart, bounds-checked lookups, overwrite and
// growth).

#include <gtest/gtest.h>

#include <vector>

#include "evrec/store/rep_table.h"

namespace evrec {
namespace store {
namespace {

TEST(RepTableTest, PutFindRoundTripPerKind) {
  RepTable table;
  table.Put(EntityKind::kUser, 0, {1.0f, 2.0f});
  table.Put(EntityKind::kEvent, 3, {3.0f, 4.0f, 5.0f});
  const std::vector<float>* user = table.Find(EntityKind::kUser, 0);
  const std::vector<float>* event = table.Find(EntityKind::kEvent, 3);
  ASSERT_NE(user, nullptr);
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(*user, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(*event, (std::vector<float>{3.0f, 4.0f, 5.0f}));
}

TEST(RepTableTest, KindsAreKeptApart) {
  RepTable table;
  table.Put(EntityKind::kUser, 5, {1.0f});
  EXPECT_EQ(table.Find(EntityKind::kEvent, 5), nullptr);
  table.Put(EntityKind::kEvent, 5, {2.0f});
  EXPECT_EQ(*table.Find(EntityKind::kUser, 5), std::vector<float>{1.0f});
  EXPECT_EQ(*table.Find(EntityKind::kEvent, 5), std::vector<float>{2.0f});
  EXPECT_EQ(table.rows(EntityKind::kUser).size(), 6u);
  EXPECT_EQ(table.rows(EntityKind::kEvent).size(), 6u);
}

TEST(RepTableTest, MissingNegativeAndPastTheEndIdsAreNotFound) {
  RepTable table;
  EXPECT_EQ(table.Find(EntityKind::kUser, 0), nullptr);  // empty table
  table.Put(EntityKind::kUser, 2, {1.0f});
  EXPECT_EQ(table.Find(EntityKind::kUser, 0), nullptr);  // empty slot
  EXPECT_EQ(table.Find(EntityKind::kUser, 1), nullptr);
  EXPECT_EQ(table.Find(EntityKind::kUser, -1), nullptr);
  EXPECT_EQ(table.Find(EntityKind::kUser, 3), nullptr);
  EXPECT_EQ(table.Find(EntityKind::kUser, 1 << 30), nullptr);
  EXPECT_NE(table.Find(EntityKind::kUser, 2), nullptr);
}

TEST(RepTableTest, ResizeAddsEmptySlots) {
  RepTable table;
  table.Resize(EntityKind::kEvent, 4);
  EXPECT_EQ(table.rows(EntityKind::kEvent).size(), 4u);
  EXPECT_TRUE(table.rows(EntityKind::kUser).empty());
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(table.Find(EntityKind::kEvent, id), nullptr) << id;
  }
}

TEST(RepTableTest, PutOverwritesAndGrows) {
  RepTable table;
  table.Put(EntityKind::kEvent, 1, {1.0f});
  table.Put(EntityKind::kEvent, 1, {2.0f, 3.0f});
  EXPECT_EQ(*table.Find(EntityKind::kEvent, 1),
            (std::vector<float>{2.0f, 3.0f}));
  EXPECT_EQ(table.rows(EntityKind::kEvent).size(), 2u);

  // A Put past the end grows the table and keeps what was stored.
  table.Put(EntityKind::kEvent, 100, {7.0f});
  EXPECT_EQ(table.rows(EntityKind::kEvent).size(), 101u);
  EXPECT_EQ(*table.Find(EntityKind::kEvent, 100), std::vector<float>{7.0f});
  EXPECT_EQ(*table.Find(EntityKind::kEvent, 1),
            (std::vector<float>{2.0f, 3.0f}));
  EXPECT_EQ(table.Find(EntityKind::kEvent, 50), nullptr);
}

}  // namespace
}  // namespace store
}  // namespace evrec
