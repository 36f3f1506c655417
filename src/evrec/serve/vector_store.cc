#include "evrec/serve/vector_store.h"

#include <utility>

#include "evrec/util/string_util.h"

namespace evrec {
namespace serve {

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
