#include "evrec/store/rep_table.h"

#include <utility>

#include "evrec/util/check.h"

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

}  // namespace store
}  // namespace evrec
