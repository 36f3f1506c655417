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
