#include "evrec/model/tower.h"

#include <algorithm>
#include <cmath>

namespace evrec {
namespace model {

namespace {

// param -= lr * grad over n floats; with `accum`, Adagrad-scaled per
// coordinate.
void Update(float lr, const float* grad, float* accum, float* param,
            size_t n) {
  constexpr float kEps = 1e-8f;
  if (accum == nullptr) {
    for (size_t i = 0; i < n; ++i) param[i] += (-lr) * grad[i];
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    accum[i] += grad[i] * grad[i];
    param[i] -= lr * grad[i] / std::sqrt(accum[i] + kEps);
  }
}

}  // namespace

template <typename Self, typename OnTable, typename OnLayer>
void Tower::ForEachParam(Self& self, OnTable&& on_table, OnLayer&& on_layer) {
  size_t offset = 0;
  auto layer = [&](auto& l, bool trainable) {
    on_layer(l, offset, trainable);
    offset += static_cast<size_t>(l.num_params());
  };
  for (size_t b = 0; b < self.banks_.size(); ++b) {
    auto& bank = self.banks_[b];
    on_table(bank.table(), b);
    for (int m = 0; m < bank.num_modules(); ++m) layer(bank.conv(m), true);
  }
  layer(self.head_.hidden_layer(), true);
  layer(self.head_.projection(), true);
  layer(self.head_.bypass(), self.head_.residual_bypass());
}

Tower::Tower(const std::vector<int>& vocab_sizes,
             const std::vector<std::vector<int>>& windows, int embedding_dim,
             int module_out_dim, int hidden_dim, int rep_dim,
             nn::PoolType pool, bool residual_bypass)
    : head_(1, 1, 1, false) {
  EVREC_CHECK_EQ(vocab_sizes.size(), windows.size());
  EVREC_CHECK(!vocab_sizes.empty());
  int concat = 0;
  banks_.reserve(vocab_sizes.size());
  for (size_t i = 0; i < vocab_sizes.size(); ++i) {
    banks_.emplace_back(vocab_sizes[i], embedding_dim, windows[i],
                        module_out_dim, pool);
    concat += banks_.back().output_dim();
  }
  norm_ = nn::FeatureNorm(concat);
  head_ = TowerHead(concat, hidden_dim, rep_dim, residual_bypass);
  grad_ = MakeGradBuffer();
}

int Tower::concat_dim() const {
  int d = 0;
  for (const auto& b : banks_) d += b.output_dim();
  return d;
}

void Tower::RandomInit(Rng& rng, float embedding_scale) {
  for (auto& b : banks_) b.RandomInit(rng, embedding_scale);
  head_.XavierInit(rng);
}

void Tower::Forward(const std::vector<text::EncodedText>& inputs,
                    Context* ctx) const {
  EVREC_CHECK_EQ(inputs.size(), banks_.size());
  ctx->banks.resize(banks_.size());
  ctx->concat.assign(static_cast<size_t>(concat_dim()), 0.0f);
  int offset = 0;
  for (size_t i = 0; i < banks_.size(); ++i) {
    banks_[i].Forward(inputs[i], &ctx->banks[i]);
    std::copy(ctx->banks[i].output.begin(), ctx->banks[i].output.end(),
              ctx->concat.begin() + offset);
    offset += banks_[i].output_dim();
  }
  norm_.Forward(ctx->concat.data(), ctx->concat.data());
  head_.Forward(ctx->concat.data(), &ctx->head);
}

void Tower::CalibrateNormalizer(
    const std::vector<std::vector<text::EncodedText>>& sample_inputs,
    size_t max_samples) {
  EVREC_CHECK(!sample_inputs.empty());
  std::vector<std::vector<float>> rows;
  size_t stride =
      std::max<size_t>(1, sample_inputs.size() / max_samples);
  std::vector<ExtractionBank::Context> bctx(banks_.size());
  for (size_t s = 0; s < sample_inputs.size(); s += stride) {
    const auto& inputs = sample_inputs[s];
    EVREC_CHECK_EQ(inputs.size(), banks_.size());
    std::vector<float> row(static_cast<size_t>(concat_dim()), 0.0f);
    int offset = 0;
    for (size_t i = 0; i < banks_.size(); ++i) {
      banks_[i].Forward(inputs[i], &bctx[i]);
      std::copy(bctx[i].output.begin(), bctx[i].output.end(),
                row.begin() + offset);
      offset += banks_[i].output_dim();
    }
    rows.push_back(std::move(row));
  }
  norm_.Calibrate(rows);
}

std::vector<float> Tower::Represent(
    const std::vector<text::EncodedText>& inputs) const {
  Context ctx;
  Forward(inputs, &ctx);
  return ctx.head.rep;
}

void Tower::Backward(const float* drep, const Context& ctx,
                     GradBuffer* grads) const {
  EVREC_CHECK_EQ(grads->tables.size(), banks_.size());
  grads->used = true;
  float* grad = grads->dense.data();
  int head_offset = 0;
  for (const auto& b : banks_) head_offset += b.num_params();
  ctx.dconcat.assign(static_cast<size_t>(concat_dim()), 0.0f);
  head_.Backward(drep, ctx.head, ctx.dconcat.data(), grad + head_offset);
  norm_.Backward(ctx.dconcat.data(), ctx.dconcat.data());
  int offset = 0;
  for (size_t i = 0; i < banks_.size(); ++i) {
    banks_[i].Backward(ctx.dconcat.data() + offset, ctx.banks[i], grad,
                       &grads->tables[i]);
    grad += banks_[i].num_params();
    offset += banks_[i].output_dim();
  }
}

Tower::GradBuffer Tower::MakeGradBuffer() const {
  GradBuffer g;
  size_t dense = 0;
  ForEachParam(
      *this,
      [&](const nn::EmbeddingTable& table, size_t) {
        g.tables.emplace_back(table.vocab_size(), table.dim());
      },
      [&](const nn::LinearLayer& layer, size_t offset, bool) {
        dense = offset + static_cast<size_t>(layer.num_params());
      });
  g.dense.assign(dense, 0.0f);
  return g;
}

void Tower::AccumulateGradients(GradBuffer* grads) {
  if (!grads->used) return;
  for (size_t i = 0; i < grad_.dense.size(); ++i) {
    grad_.dense[i] += grads->dense[i];
  }
  std::fill(grads->dense.begin(), grads->dense.end(), 0.0f);
  for (size_t b = 0; b < banks_.size(); ++b) {
    nn::EmbeddingTable::Gradients& shard = grads->tables[b];
    for (int id : shard.touched) {
      banks_[b].table().AccumulateGrad(id, shard.Row(id), &grad_.tables[b]);
    }
    shard.Clear();
  }
  grads->used = false;
}

void Tower::EnableAdagrad() {
  if (adagrad_) return;
  adagrad_ = true;
  dense_accum_.assign(grad_.dense.size(), 0.0f);
  table_accum_.clear();
  for (const auto& t : grad_.tables) {
    table_accum_.emplace_back(t.grad.rows(), t.grad.cols());
  }
}

void Tower::Step(float lr) {
  ForEachParam(
      *this,
      [&](nn::EmbeddingTable& table, size_t b) {
        nn::EmbeddingTable::Gradients& g = grad_.tables[b];
        for (int id : g.touched) {
          Update(lr, g.Row(id),
                 adagrad_ ? table_accum_[b].Row(id) : nullptr,
                 table.MutableVector(id), static_cast<size_t>(table.dim()));
        }
        g.Clear();
      },
      [&](nn::LinearLayer& layer, size_t offset, bool) {
        const float* g = grad_.dense.data() + offset;
        float* accum = adagrad_ ? dense_accum_.data() + offset : nullptr;
        const size_t weights = layer.weight().size();
        Update(lr, g, accum, layer.mutable_weight().data(), weights);
        Update(lr, g + weights, accum ? accum + weights : nullptr,
               layer.mutable_bias().data(), layer.bias().size());
      });
  std::fill(grad_.dense.begin(), grad_.dense.end(), 0.0f);
}

void Tower::Serialize(BinaryWriter& w) const {
  w.WriteMagic("TOWR");
  w.WriteI32(static_cast<int>(banks_.size()));
  for (const auto& b : banks_) b.Serialize(w);
  norm_.Serialize(w);
  head_.Serialize(w);
}

void Tower::SerializeOptimizer(BinaryWriter& w) const {
  ForEachParam(
      *this,
      [&](const nn::EmbeddingTable&, size_t b) {
        w.WriteMagic("EOPT");
        w.WriteI32(adagrad_ ? 1 : 0);
        if (adagrad_) table_accum_[b].Serialize(w);
      },
      [&](const nn::LinearLayer& layer, size_t offset, bool trainable) {
        const bool on = adagrad_ && trainable;
        w.WriteMagic("LOPT");
        w.WriteI32(on ? 1 : 0);
        if (!on) return;
        const float* accum = dense_accum_.data() + offset;
        la::Matrix weight(layer.out_dim(), layer.in_dim());
        std::copy(accum, accum + weight.size(), weight.data());
        weight.Serialize(w);
        const float* bias = accum + weight.size();
        w.WriteFloatVector(
            std::vector<float>(bias, bias + layer.bias().size()));
      });
}

void Tower::DeserializeOptimizer(BinaryReader& r) {
  ForEachParam(
      *this,
      [&](const nn::EmbeddingTable& table, size_t b) {
        r.ExpectMagic("EOPT");
        const int on = r.ReadI32();
        if (!r.ok() || on == 0) return;
        la::Matrix accum = la::Matrix::Deserialize(r);
        if (!r.ok()) return;
        if (accum.rows() != table.vocab_size() || accum.cols() != table.dim()) {
          r.MarkCorrupt("optimizer state shape does not match embedding table");
          return;
        }
        EnableAdagrad();
        table_accum_[b] = std::move(accum);
      },
      [&](const nn::LinearLayer& layer, size_t offset, bool) {
        r.ExpectMagic("LOPT");
        const int on = r.ReadI32();
        if (!r.ok() || on == 0) return;
        la::Matrix accum = la::Matrix::Deserialize(r);
        std::vector<float> bias_accum = r.ReadFloatVector();
        if (!r.ok()) return;
        if (accum.rows() != layer.out_dim() || accum.cols() != layer.in_dim() ||
            bias_accum.size() != layer.bias().size()) {
          r.MarkCorrupt("optimizer state shape does not match layer");
          return;
        }
        EnableAdagrad();
        float* dst = dense_accum_.data() + offset;
        std::copy(accum.data(), accum.data() + accum.size(), dst);
        std::copy(bias_accum.begin(), bias_accum.end(), dst + accum.size());
      });
}

Tower Tower::Deserialize(BinaryReader& r) {
  Tower t;
  r.ExpectMagic("TOWR");
  int n = r.ReadI32();
  if (!r.ok() || n <= 0) return t;
  t.banks_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n && r.ok(); ++i) {
    t.banks_.push_back(ExtractionBank::Deserialize(r));
  }
  t.norm_ = nn::FeatureNorm::Deserialize(r);
  t.head_ = TowerHead::Deserialize(r);
  t.grad_ = t.MakeGradBuffer();
  return t;
}

}  // namespace model
}  // namespace evrec
