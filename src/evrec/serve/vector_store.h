// VectorStore: the serving layer's fault-prone view of the distributed
// representation store (TAO in the paper, store::RepTable here). Unlike
// the table's API, Get returns a Status so lookups can fail the way a
// remote store fails: miss (NotFound), bad stored bytes (Corruption), or
// transient outage (Unavailable, injected by decorators).

#ifndef EVREC_SERVE_VECTOR_STORE_H_
#define EVREC_SERVE_VECTOR_STORE_H_

#include <vector>

#include "evrec/store/rep_table.h"
#include "evrec/util/status.h"
#include "evrec/util/thread_pool.h"

namespace evrec {
namespace serve {

class VectorStore {
 public:
  virtual ~VectorStore() = default;

  virtual StatusOr<std::vector<float>> Get(store::EntityKind kind,
                                           int id) = 0;
  virtual void Put(store::EntityKind kind, int id,
                   std::vector<float> vector) = 0;
};

// One candidate's result from batch scoring. Scores are float end to end:
// the representation vectors are float, the kernels accumulate in float,
// and keeping the struct at 12 bytes doubles how many candidates fit in a
// cache line during selection.
struct ScoredCandidate {
  int id = 0;
  float score = 0.0f;  // cosine similarity to the query
  bool found = false;  // false when the store had no usable vector
};

// Full-corpus candidate scoring: fetches every candidate's vector and
// scores it against `query` by cosine similarity. Fetches run sequentially
// (store decorators — retries, fault injectors — are not required to be
// thread-safe) into a 64-byte-aligned la::FlatVectorBlock scratch, then
// the similarity math runs as a cache-blocked batched kernel: one sweep of
// the query vector scores 8 candidates (la::FlatVectorBlock::CosineBlock).
// The per-block work is sharded across `pool`; every block's scores depend
// only on that block's candidates, so the result is identical for any
// thread count — and for any SIMD tier (see la/simd/dispatch.h).
std::vector<ScoredCandidate> ScoreCandidates(
    VectorStore* store, store::EntityKind kind,
    const std::vector<float>& query, const std::vector<int>& candidate_ids,
    ThreadPool* pool);

// Keeps the k best found candidates, descending score, ties broken by
// ascending id (deterministic total order). Heap-based partial selection
// over a bounded k-element heap — O(n log k), never a full sort — and the
// argument is consumed (pass std::move or a temporary; copy explicitly if
// the full score list is still needed).
std::vector<ScoredCandidate> TopK(std::vector<ScoredCandidate>&& scored,
                                  int k);

// Same selection over a raw span (no ownership taken); the batched-scoring
// callers that keep `scored` alive use this to avoid the copy.
std::vector<ScoredCandidate> TopKSpan(const ScoredCandidate* scored,
                                      size_t n, int k);

// Adapter over the in-process RepTable: a missing slot surfaces as
// NotFound, and Put (the tier-2 recompute write-back) stores into the
// table, growing it when needed. Like the decorators, not safe for
// concurrent callers: a growing Put reallocates the table.
class RepTableVectorStore : public VectorStore {
 public:
  explicit RepTableVectorStore(store::RepTable* table) : table_(table) {}

  StatusOr<std::vector<float>> Get(store::EntityKind kind, int id) override;
  void Put(store::EntityKind kind, int id,
           std::vector<float> vector) override;

 private:
  store::RepTable* table_;
};

}  // namespace serve
}  // namespace evrec

#endif  // EVREC_SERVE_VECTOR_STORE_H_
