// RepTable: the representation vectors, stored once and indexed by entity
// id — a laptop-scale stand-in for the distributed data store (TAO [29])
// the paper serves them from: "User and event vectors are only computed
// upon creation and important information change. They can be cached in
// distributed data store ... for quick access at recommendation time."
//
// One row vector per id and entity kind; an empty slot means the vector is
// missing. Ids are dense (simnet numbers users and events from 0), so a
// plain vector per kind replaces any hashing, sharding or eviction.

#ifndef EVREC_STORE_REP_TABLE_H_
#define EVREC_STORE_REP_TABLE_H_

#include <cstddef>
#include <vector>

namespace evrec {
namespace store {

enum class EntityKind { kUser = 0, kEvent = 1 };

class RepTable {
 public:
  // Sizes `kind` to `n` slots; new slots are empty.
  void Resize(EntityKind kind, size_t n) { rows_[Index(kind)].resize(n); }

  // The stored vector, or nullptr when `id` is negative, past the end, or
  // its slot is empty.
  const std::vector<float>* Find(EntityKind kind, int id) const;

  // Stores `vector` at `id` (>= 0), growing the table when `id` is past
  // the end. An in-range Put never reallocates the table, so concurrent
  // Puts of distinct in-range ids are safe; growing is not.
  void Put(EntityKind kind, int id, std::vector<float> vector);

  // Every slot of `kind`, indexed by id.
  const std::vector<std::vector<float>>& rows(EntityKind kind) const {
    return rows_[Index(kind)];
  }

 private:
  static size_t Index(EntityKind kind) { return static_cast<size_t>(kind); }

  std::vector<std::vector<float>> rows_[2];
};

// One exact nearest-neighbour result: a row id and its cosine similarity
// to the query.
struct Neighbor {
  int id = 0;
  double score = 0.0;
};

// Exact top-k similarity search over id-indexed rows (RepTable::rows, or
// any vectors indexed by id): every candidate row is scored against
// `query` with CosineSimilarity (util/math_util.h, double), and the k
// best are returned by descending score, ties broken by ascending id.
// Empty rows (missing slots) and ids outside `rows` are skipped; a
// non-empty row must have the query's length. k <= 0 returns nothing,
// and a k past the number of scored rows returns them all.
std::vector<Neighbor> NearestByCosine(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& rows,
    const std::vector<int>& candidates, int k);

// Same over every row except `exclude` (-1 excludes nothing), e.g. the
// seed of a related-event query.
std::vector<Neighbor> NearestByCosine(
    const std::vector<float>& query,
    const std::vector<std::vector<float>>& rows, int exclude, int k);

}  // namespace store
}  // namespace evrec

#endif  // EVREC_STORE_REP_TABLE_H_
