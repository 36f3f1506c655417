// Tests for evrec/store: the id-indexed representation table (round trips
// per kind, kinds kept apart, bounds-checked lookups, overwrite and
// growth) and the exact cosine top-k over its rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "evrec/store/rep_table.h"
#include "evrec/util/math_util.h"
#include "evrec/util/rng.h"

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

// The spec, written independently of the implementation: score every
// admissible id in ascending order, then a stable sort by descending score
// keeps ascending ids among equal scores.
std::vector<Neighbor> BruteForceTopK(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& rows, std::vector<int> ids,
    int k) {
  std::sort(ids.begin(), ids.end());
  std::vector<Neighbor> all;
  for (int id : ids) {
    if (id < 0 || id >= static_cast<int>(rows.size())) continue;
    const std::vector<float>& row = rows[static_cast<size_t>(id)];
    if (row.empty()) continue;
    all.push_back({id, CosineSimilarity(query.data(), row.data(),
                                        static_cast<int>(row.size()))});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     return a.score > b.score;
                   });
  if (k < 0) k = 0;
  if (all.size() > static_cast<size_t>(k)) all.resize(static_cast<size_t>(k));
  return all;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

TEST(NearestByCosineTest, MatchesBruteForceWithTiesExclusionAndEmptyRows) {
  const int n = 60, dim = 8;
  Rng rng(31);
  std::vector<std::vector<float>> rows(static_cast<size_t>(n));
  for (auto& row : rows) {
    row.resize(dim);
    for (float& x : row) x = static_cast<float>(rng.UniformInt(-50, 50));
  }
  // Planted ties: exact copies of the seed row score exactly alike (and
  // tie with the seed, which the exclusion must drop), and so do exact
  // copies of another row and the zero vectors (cosine 0).
  const int seed = 7;
  for (int id : {3, 19, 42}) rows[static_cast<size_t>(id)] = rows[seed];
  for (int id : {25, 50}) rows[static_cast<size_t>(id)] = rows[11];
  for (int id : {13, 31}) rows[static_cast<size_t>(id)].assign(dim, 0.0f);
  // Missing slots.
  for (int id : {0, 8, 44, 59}) rows[static_cast<size_t>(id)].clear();
  const std::vector<float> query = rows[seed];

  std::vector<int> all_but_seed;
  for (int id = 0; id < n; ++id) {
    if (id != seed) all_but_seed.push_back(id);
  }
  // Candidates out of id order, with missing, out-of-range and seed ids.
  std::vector<int> candidates = {42, 5, 59, 11, -3, 3, 25, 13, 99, 19,
                                 50, 31, 0, 7, 30, 8, 2, 44, 58, 1};

  for (int k : {-1, 0, 1, 3, 4, 10, n - 6, n, 1000}) {
    const std::string tag = "k=" + std::to_string(k);
    ExpectSameNeighbors(NearestByCosine(query, rows, seed, k),
                        BruteForceTopK(query, rows, all_but_seed, k),
                        "exclude " + tag);
    ExpectSameNeighbors(NearestByCosine(query, rows, candidates, k),
                        BruteForceTopK(query, rows, candidates, k),
                        "candidates " + tag);
  }

  // The planted tie leads, in ascending id order; the seed is excluded.
  std::vector<Neighbor> top = NearestByCosine(query, rows, seed, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 3);
  EXPECT_EQ(top[1].id, 19);
  EXPECT_EQ(top[2].id, 42);
  EXPECT_EQ(top[0].score, top[2].score);
  // Every non-empty row but the seed is returned when k exceeds them.
  EXPECT_EQ(NearestByCosine(query, rows, seed, 1000).size(),
            static_cast<size_t>(n - 1 - 4));
  // -1 excludes nothing: the seed ties with its copies and sorts first.
  EXPECT_EQ(NearestByCosine(query, rows, -1, 1)[0].id, 3);
  EXPECT_EQ(NearestByCosine(query, rows, -1, 1000).size(),
            static_cast<size_t>(n - 4));
}

TEST(NearestByCosineTest, EmptyInputsReturnNothing) {
  const std::vector<float> query = {1.0f, 0.0f};
  EXPECT_TRUE(NearestByCosine(query, {}, -1, 5).empty());
  EXPECT_TRUE(NearestByCosine(query, {{}, {}}, -1, 5).empty());
  EXPECT_TRUE(NearestByCosine(query, {{1.0f, 1.0f}}, std::vector<int>{}, 5)
                  .empty());
}

}  // namespace
}  // namespace store
}  // namespace evrec
