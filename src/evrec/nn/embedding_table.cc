#include "evrec/nn/embedding_table.h"

#include "evrec/la/vec_ops.h"

namespace evrec {
namespace nn {

EmbeddingTable::EmbeddingTable(int vocab_size, int dim)
    : table_(vocab_size, dim) {
  EVREC_CHECK_GT(vocab_size, 0);
  EVREC_CHECK_GT(dim, 0);
}

void EmbeddingTable::RandomInit(Rng& rng, float scale) {
  table_.UniformInit(rng, scale);
}

EmbeddingTable::Gradients::Gradients(int vocab_size, int dim)
    : grad(vocab_size, dim), is_touched(static_cast<size_t>(vocab_size), 0) {}

void EmbeddingTable::Gradients::Clear() {
  for (int id : touched) {
    la::Zero(grad.Row(id), grad.cols());
    is_touched[static_cast<size_t>(id)] = 0;
  }
  touched.clear();
}

void EmbeddingTable::AccumulateGrad(int id, const float* grad,
                                    Gradients* grads) const {
  EVREC_CHECK_GE(id, 0);
  EVREC_CHECK_LT(id, vocab_size());
  if (!grads->is_touched[static_cast<size_t>(id)]) {
    grads->is_touched[static_cast<size_t>(id)] = 1;
    grads->touched.push_back(id);
  }
  la::Axpy(1.0f, grad, grads->grad.Row(id), dim());
}

void EmbeddingTable::Serialize(BinaryWriter& w) const {
  w.WriteMagic("EMBT");
  table_.Serialize(w);
}

EmbeddingTable EmbeddingTable::Deserialize(BinaryReader& r) {
  r.ExpectMagic("EMBT");
  la::Matrix table = la::Matrix::Deserialize(r);
  int rows = table.rows() > 0 ? table.rows() : 1;
  int cols = table.cols() > 0 ? table.cols() : 1;
  EmbeddingTable t(rows, cols);
  if (r.ok() && table.rows() > 0) {
    t.table_ = std::move(table);
  }
  return t;
}

}  // namespace nn
}  // namespace evrec
