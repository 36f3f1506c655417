// Trainable token lookup table (paper §3.1: "maps each token into a feature
// vector by a lookup table operation"; the table is part of the network
// parameters and trained by backprop).
//
// The table holds parameters only. Its gradient is sparse: a
// Gradients buffer the caller owns (one per shard, plus the owning
// model::Tower's fold target) records which rows were touched, so
// clearing, folding and stepping cost the minibatch footprint, not the
// vocabulary. The optimizer lives in the tower (model/tower.h).

#ifndef EVREC_NN_EMBEDDING_TABLE_H_
#define EVREC_NN_EMBEDDING_TABLE_H_

#include <cstdint>
#include <vector>

#include "evrec/la/matrix.h"
#include "evrec/util/binary_io.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace nn {

class EmbeddingTable {
 public:
  EmbeddingTable(int vocab_size, int dim);

  int vocab_size() const { return table_.rows(); }
  int dim() const { return table_.cols(); }

  // Random init in [-scale, scale]; paper: "randomly initialized".
  void RandomInit(Rng& rng, float scale = 0.1f);

  // Sparse gradient of one table: a dense row store plus the touched-row
  // list. A plain value, so buffers may live in growing containers.
  struct Gradients {
    Gradients(int vocab_size, int dim);

    la::Matrix grad;  // vocab x dim
    std::vector<int> touched;
    std::vector<uint8_t> is_touched;

    const float* Row(int id) const { return grad.Row(id); }
    // Zeroes the touched rows and empties the list.
    void Clear();
  };

  const float* Vector(int id) const { return table_.Row(id); }
  float* MutableVector(int id) { return table_.Row(id); }

  // Backward of the lookup: grads->Row(id) += grad, marking the row
  // touched. Const, so shards may run it concurrently on disjoint buffers.
  void AccumulateGrad(int id, const float* grad, Gradients* grads) const;

  void Serialize(BinaryWriter& w) const;
  static EmbeddingTable Deserialize(BinaryReader& r);

 private:
  la::Matrix table_;
};

}  // namespace nn
}  // namespace evrec

#endif  // EVREC_NN_EMBEDDING_TABLE_H_
