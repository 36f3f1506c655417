#include "evrec/store/rep_table.h"

#include <algorithm>
#include <utility>

#include "evrec/util/check.h"
#include "evrec/util/math_util.h"

namespace evrec {
namespace store {

const std::vector<float>* RepTable::Find(EntityKind kind, int id) const {
  const std::vector<std::vector<float>>& slots = rows_[Index(kind)];
  if (id < 0 || static_cast<size_t>(id) >= slots.size()) return nullptr;
  const std::vector<float>& vector = slots[static_cast<size_t>(id)];
  return vector.empty() ? nullptr : &vector;
}

void RepTable::Put(EntityKind kind, int id, std::vector<float> vector) {
  EVREC_CHECK_GE(id, 0);
  std::vector<std::vector<float>>& slots = rows_[Index(kind)];
  const size_t slot = static_cast<size_t>(id);
  if (slot >= slots.size()) slots.resize(slot + 1);
  slots[slot] = std::move(vector);
}

namespace {

// Appends `id`'s cosine to `query` unless its row is missing.
void ScoreRow(const std::vector<float>& query,
              const std::vector<std::vector<float>>& rows, int id,
              std::vector<Neighbor>* scored) {
  if (id < 0 || static_cast<size_t>(id) >= rows.size()) return;
  const std::vector<float>& row = rows[static_cast<size_t>(id)];
  if (row.empty()) return;
  EVREC_CHECK_EQ(row.size(), query.size()) << "row " << id;
  scored->push_back({id, CosineSimilarity(query.data(), row.data(),
                                          static_cast<int>(row.size()))});
}

// Keeps the k best of `scored`: descending score, ties by ascending id.
std::vector<Neighbor> KeepTopK(std::vector<Neighbor> scored, int k) {
  const size_t keep = std::min(scored.size(),
                               static_cast<size_t>(std::max(k, 0)));
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    scored.end(), [](const Neighbor& a, const Neighbor& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  scored.resize(keep);
  return scored;
}

}  // namespace

std::vector<Neighbor> NearestByCosine(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& rows,
    const std::vector<int>& candidates, int k) {
  std::vector<Neighbor> scored;
  scored.reserve(candidates.size());
  for (int id : candidates) ScoreRow(query, rows, id, &scored);
  return KeepTopK(std::move(scored), k);
}

std::vector<Neighbor> NearestByCosine(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& rows, int exclude, int k) {
  std::vector<Neighbor> scored;
  scored.reserve(rows.size());
  for (int id = 0; id < static_cast<int>(rows.size()); ++id) {
    if (id != exclude) ScoreRow(query, rows, id, &scored);
  }
  return KeepTopK(std::move(scored), k);
}

}  // namespace store
}  // namespace evrec
