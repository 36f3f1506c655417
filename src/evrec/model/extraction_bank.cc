#include "evrec/model/extraction_bank.h"

#include <algorithm>

namespace evrec {
namespace model {

ExtractionBank::ExtractionBank(int vocab_size, int embedding_dim,
                               const std::vector<int>& windows,
                               int module_out_dim, nn::PoolType pool)
    : table_(std::make_shared<nn::EmbeddingTable>(std::max(vocab_size, 1),
                                                  embedding_dim)),
      module_out_dim_(module_out_dim) {
  EVREC_CHECK(!windows.empty());
  modules_.reserve(windows.size());
  for (int w : windows) {
    modules_.emplace_back(table_, w, module_out_dim, pool);
  }
}

void ExtractionBank::RandomInit(Rng& rng, float embedding_scale) {
  table_->RandomInit(rng, embedding_scale);
  for (auto& m : modules_) m.XavierInit(rng);
}

void ExtractionBank::Forward(const text::EncodedText& input,
                             Context* ctx) const {
  ctx->modules.resize(modules_.size());
  ctx->output.assign(static_cast<size_t>(output_dim()), 0.0f);
  for (size_t i = 0; i < modules_.size(); ++i) {
    modules_[i].Forward(input, &ctx->modules[i]);
    std::copy(ctx->modules[i].output.begin(), ctx->modules[i].output.end(),
              ctx->output.begin() + static_cast<long>(i) * module_out_dim_);
  }
}

int ExtractionBank::num_params() const {
  int n = 0;
  for (const auto& m : modules_) n += m.conv().num_params();
  return n;
}

void ExtractionBank::Backward(
    const float* dout, const Context& ctx, float* conv_grads,
    nn::EmbeddingTable::Gradients* table_grads) const {
  EVREC_CHECK_EQ(ctx.modules.size(), modules_.size());
  for (size_t i = 0; i < modules_.size(); ++i) {
    modules_[i].Backward(dout + static_cast<long>(i) * module_out_dim_,
                         ctx.modules[i], conv_grads, table_grads);
    conv_grads += modules_[i].conv().num_params();
  }
}

void ExtractionBank::Serialize(BinaryWriter& w) const {
  w.WriteMagic("BANK");
  w.WriteI32(module_out_dim_);
  table_->Serialize(w);
  w.WriteI32(static_cast<int>(modules_.size()));
  for (const auto& m : modules_) m.Serialize(w);
}

ExtractionBank ExtractionBank::Deserialize(BinaryReader& r) {
  ExtractionBank bank;
  r.ExpectMagic("BANK");
  bank.module_out_dim_ = r.ReadI32();
  bank.table_ = std::make_shared<nn::EmbeddingTable>(
      nn::EmbeddingTable::Deserialize(r));
  int n = r.ReadI32();
  if (!r.ok() || n < 0) return bank;
  bank.modules_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n && r.ok(); ++i) {
    bank.modules_.push_back(
        nn::ConvTextModule::Deserialize(r, bank.table_));
  }
  return bank;
}

}  // namespace model
}  // namespace evrec
