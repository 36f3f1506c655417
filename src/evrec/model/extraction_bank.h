// ExtractionBank: several ConvTextModules with different window sizes
// applied to the SAME input document, sharing ONE lookup table, with their
// outputs concatenated (paper §3.1.1-3.1.2: three text modules with windows
// 1/3/5 share the text lookup table; the categorical module has its own
// table and window 1).

#ifndef EVREC_MODEL_EXTRACTION_BANK_H_
#define EVREC_MODEL_EXTRACTION_BANK_H_

#include <memory>
#include <vector>

#include "evrec/nn/conv_text_module.h"

namespace evrec {
namespace model {

class ExtractionBank {
 public:
  // Creates the shared table (vocab_size x embedding_dim) and one module
  // per entry of `windows`.
  ExtractionBank(int vocab_size, int embedding_dim,
                 const std::vector<int>& windows, int module_out_dim,
                 nn::PoolType pool);

  struct Context {
    std::vector<nn::ConvContext> modules;
    std::vector<float> output;  // concatenated module outputs
  };

  int output_dim() const {
    return static_cast<int>(modules_.size()) * module_out_dim_;
  }
  int num_modules() const { return static_cast<int>(modules_.size()); }
  const nn::ConvTextModule& module(int i) const { return modules_[i]; }
  // Module i's convolution and the shared table, const and mutable alike,
  // so model::Tower walks its parameters with one template.
  const nn::LinearLayer& conv(int i) const { return modules_[i].conv(); }
  nn::LinearLayer& conv(int i) { return modules_[i].mutable_conv(); }
  const nn::EmbeddingTable& table() const { return *table_; }
  nn::EmbeddingTable& table() { return *table_; }
  // Floats of the modules' convolution gradients, back to back.
  int num_params() const;

  void RandomInit(Rng& rng, float embedding_scale = 0.1f);

  void Forward(const text::EncodedText& input, Context* ctx) const;

  // `dout` has output_dim() entries (the concatenation layout of Forward).
  // Accumulates each module's convolution gradient into `conv_grads`
  // (num_params() floats, module by module) and the shared table's into
  // `table_grads`. Const, so shards may run it concurrently on disjoint
  // buffers.
  void Backward(const float* dout, const Context& ctx, float* conv_grads,
                nn::EmbeddingTable::Gradients* table_grads) const;

  void Serialize(BinaryWriter& w) const;
  static ExtractionBank Deserialize(BinaryReader& r);

 private:
  ExtractionBank() : module_out_dim_(0) {}

  std::shared_ptr<nn::EmbeddingTable> table_;
  std::vector<nn::ConvTextModule> modules_;
  int module_out_dim_;
};

}  // namespace model
}  // namespace evrec

#endif  // EVREC_MODEL_EXTRACTION_BANK_H_
