#include "evrec/serve/vector_store.h"

#include <algorithm>

#include "evrec/la/flat_block.h"
#include "evrec/la/vec_ops.h"
#include "evrec/obs/trace.h"
#include "evrec/util/string_util.h"

namespace evrec {
namespace serve {

namespace {

// Descending score, ties broken by ascending id: a deterministic total
// order over found candidates.
inline bool Better(const ScoredCandidate& a, const ScoredCandidate& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

}  // namespace

std::vector<ScoredCandidate> ScoreCandidates(
    VectorStore* store, store::EntityKind kind,
    const std::vector<float>& query, const std::vector<int>& candidate_ids,
    ThreadPool* pool) {
  obs::ScopedSpan span("serve.score_candidates");
  span.AddTag("candidates",
              StrFormat("%zu", candidate_ids.size()));
  const int n = static_cast<int>(candidate_ids.size());
  const int dim = static_cast<int>(query.size());
  std::vector<ScoredCandidate> scored(static_cast<size_t>(n));

  // Sequential fetch into the flat scratch: slot i holds candidate i's
  // vector (missing candidates stay zero, which the cosine guard maps to
  // score 0 — and found=false marks them for TopK anyway).
  la::FlatVectorBlock block(dim);
  block.Resize(n);
  for (int i = 0; i < n; ++i) {
    scored[static_cast<size_t>(i)].id = candidate_ids[static_cast<size_t>(i)];
    StatusOr<std::vector<float>> got =
        store->Get(kind, candidate_ids[static_cast<size_t>(i)]);
    if (got.ok() && got.value().size() == query.size()) {
      block.Set(i, got.value().data());
      scored[static_cast<size_t>(i)].found = true;
    }
  }

  // Batched scoring, 8 candidates per sweep of the query vector. Each
  // shard scores whole blocks; block b writes exactly the slots
  // [b*8, b*8+8) and reads nothing outside its block, so any thread count
  // (and any SIMD tier) produces identical bytes.
  const float q_sqnorm = la::DotF(query.data(), query.data(), dim);
  const int lane = la::FlatVectorBlock::kLane;
  auto score_block = [&](int b) {
    float scores[la::FlatVectorBlock::kLane];
    block.CosineBlock(b, query.data(), q_sqnorm, scores);
    const int begin = b * lane;
    const int count = std::min(lane, n - begin);
    for (int l = 0; l < count; ++l) {
      scored[static_cast<size_t>(begin + l)].score = scores[l];
    }
  };
  if (pool == nullptr) {
    for (int b = 0; b < block.num_blocks(); ++b) score_block(b);
  } else {
    pool->ParallelFor(block.num_blocks(), score_block);
  }
  return scored;
}

std::vector<ScoredCandidate> TopKSpan(const ScoredCandidate* scored,
                                      size_t n, int k) {
  std::vector<ScoredCandidate> heap;
  if (k <= 0) return heap;
  heap.reserve(static_cast<size_t>(k));
  // Min-heap under Better-as-less: the heap top is the WORST kept
  // candidate, so each new candidate compares against the bar in O(1) and
  // replaces it in O(log k).
  for (size_t i = 0; i < n; ++i) {
    const ScoredCandidate& c = scored[i];
    if (!c.found) continue;
    if (heap.size() < static_cast<size_t>(k)) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), Better);
    } else if (Better(c, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = c;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), Better);
  return heap;
}

std::vector<ScoredCandidate> TopK(std::vector<ScoredCandidate>&& scored,
                                  int k) {
  std::vector<ScoredCandidate> result =
      TopKSpan(scored.data(), scored.size(), k);
  scored.clear();
  return result;
}

StatusOr<std::vector<float>> RepTableVectorStore::Get(store::EntityKind kind,
                                                      int id) {
  const std::vector<float>* vector = table_->Find(kind, id);
  if (vector != nullptr) return *vector;
  return Status::NotFound(StrFormat(
      "no stored vector for %s %d",
      kind == store::EntityKind::kUser ? "user" : "event", id));
}

void RepTableVectorStore::Put(store::EntityKind kind, int id,
                              std::vector<float> vector) {
  table_->Put(kind, id, std::move(vector));
}

}  // namespace serve
}  // namespace evrec
