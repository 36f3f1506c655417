#include "evrec/nn/conv_text_module.h"

#include <algorithm>
#include <cmath>

#include "evrec/la/vec_ops.h"

namespace evrec {
namespace nn {

const char* PoolTypeName(PoolType type) {
  switch (type) {
    case PoolType::kLogSumExp:
      return "logsumexp";
    case PoolType::kMax:
      return "max";
    case PoolType::kMean:
      return "mean";
  }
  return "unknown";
}

ConvTextModule::ConvTextModule(std::shared_ptr<EmbeddingTable> table,
                               int window_size, int out_dim, PoolType pool)
    : table_(std::move(table)),
      window_size_(window_size),
      pool_(pool),
      conv_(window_size * (table_ ? table_->dim() : 1), out_dim) {
  EVREC_CHECK(table_ != nullptr);
  EVREC_CHECK_GT(window_size, 0);
  EVREC_CHECK_GT(out_dim, 0);
}

void ConvTextModule::Forward(const text::EncodedText& input,
                             ConvContext* ctx) const {
  const int emb = table_->dim();
  const int k = out_dim();
  const int d = window_size_;
  ctx->token_ids = input.token_ids;
  ctx->word_index = input.word_index;
  ctx->output.assign(static_cast<size_t>(k), 0.0f);
  ctx->argmax_window.assign(static_cast<size_t>(k), 0);

  const int n = input.size();
  if (n == 0) {
    ctx->empty = true;
    ctx->num_windows = 0;
    return;
  }
  ctx->empty = false;
  const int num_windows = std::max(1, n - d + 1);
  ctx->num_windows = num_windows;
  ctx->windows.Resize(num_windows, d * emb);
  ctx->pre_pool.Resize(num_windows, k);

  for (int i = 0; i < num_windows; ++i) {
    float* win = ctx->windows.Row(i);
    for (int p = 0; p < d; ++p) {
      int tok_pos = i + p;
      if (tok_pos < n) {
        const float* v = table_->Vector(input.token_ids[tok_pos]);
        std::copy(v, v + emb, win + p * emb);
      }
      // else: already zero (right padding for n < d)
    }
    conv_.Forward(win, ctx->pre_pool.Row(i));
  }

  // Pool over windows. All variants walk pre_pool row-major in a single
  // pass (the old code walked every column twice, strided).
  const float inv_windows = 1.0f / static_cast<float>(num_windows);
  switch (pool_) {
    case PoolType::kLogSumExp: {
      // Log-MEAN-exp: the paper's log-sum-exp shifted by -log(#windows).
      // The raw sum adds the same +log(n) offset to every output
      // dimension, which (a) points all pooled vectors toward the
      // all-ones direction, making initial cosines ~1 regardless of
      // content, and (b) saturates the downstream tanh layers so
      // gradients vanish. The shift is constant per example, leaves the
      // soft-max semantics and the max-window attribution unchanged, and
      // keeps the gradient field identical. The per-channel running
      // max+sum state is the fused OnlineLogSumExp recurrence.
      ctx->pool_state.assign(static_cast<size_t>(k), OnlineLogSumExp());
      OnlineLogSumExp* states = ctx->pool_state.data();
      for (int i = 0; i < num_windows; ++i) {
        const float* row = ctx->pre_pool.Row(i);
        for (int c = 0; c < k; ++c) states[c].Update(row[c]);
      }
      for (int c = 0; c < k; ++c) {
        ctx->argmax_window[c] = states[c].argmax;
        ctx->output[c] = states[c].max + std::log(states[c].sum * inv_windows);
      }
      break;
    }
    case PoolType::kMax: {
      const float* row0 = ctx->pre_pool.Row(0);
      std::copy(row0, row0 + k, ctx->output.begin());
      for (int i = 1; i < num_windows; ++i) {
        const float* row = ctx->pre_pool.Row(i);
        for (int c = 0; c < k; ++c) {
          if (row[c] > ctx->output[c]) {
            ctx->output[c] = row[c];
            ctx->argmax_window[c] = i;
          }
        }
      }
      break;
    }
    case PoolType::kMean: {
      // Track the max alongside the sum so argmax attribution stays
      // available; pool_state doubles as the max/argmax scratch.
      ctx->pool_state.assign(static_cast<size_t>(k), OnlineLogSumExp());
      OnlineLogSumExp* states = ctx->pool_state.data();
      for (int i = 0; i < num_windows; ++i) {
        const float* row = ctx->pre_pool.Row(i);
        for (int c = 0; c < k; ++c) {
          if (row[c] > states[c].max) {
            states[c].max = row[c];
            states[c].argmax = i;
          }
          ctx->output[c] += row[c];
        }
      }
      for (int c = 0; c < k; ++c) {
        ctx->argmax_window[c] = states[c].argmax;
        ctx->output[c] *= inv_windows;
      }
      break;
    }
  }
}

void ConvTextModule::ComputePoolGrad(const float* dout,
                                     const ConvContext& ctx) const {
  const int k = out_dim();
  const int num_windows = ctx.num_windows;
  ctx.dpre.Resize(num_windows, k);
  switch (pool_) {
    case PoolType::kLogSumExp: {
      // Softmax over windows per channel. output = lse - log(n), so the
      // true log-sum-exp is output + log(n). Row-major single pass.
      const float log_n = std::log(static_cast<float>(num_windows));
      for (int i = 0; i < num_windows; ++i) {
        const float* pre = ctx.pre_pool.Row(i);
        float* dp = ctx.dpre.Row(i);
        for (int c = 0; c < k; ++c) {
          float alpha = std::exp(pre[c] - (ctx.output[c] + log_n));
          dp[c] = dout[c] * alpha;
        }
      }
      break;
    }
    case PoolType::kMax:
      for (int c = 0; c < k; ++c) {
        ctx.dpre.At(ctx.argmax_window[c], c) = dout[c];
      }
      break;
    case PoolType::kMean: {
      const float inv = 1.0f / static_cast<float>(num_windows);
      for (int i = 0; i < num_windows; ++i) {
        float* dp = ctx.dpre.Row(i);
        for (int c = 0; c < k; ++c) dp[c] = dout[c] * inv;
      }
      break;
    }
  }
}

void ConvTextModule::Backward(const float* dout, const ConvContext& ctx,
                              float* conv_grad,
                              EmbeddingTable::Gradients* table_grads) const {
  if (ctx.empty) return;
  const int emb = table_->dim();
  const int d = window_size_;
  const int n = static_cast<int>(ctx.token_ids.size());

  ComputePoolGrad(dout, ctx);

  ctx.dwindow.assign(static_cast<size_t>(d) * emb, 0.0f);
  for (int i = 0; i < ctx.num_windows; ++i) {
    la::Zero(ctx.dwindow.data(), d * emb);
    conv_.Backward(ctx.windows.Row(i), ctx.dpre.Row(i), ctx.dwindow.data(),
                   conv_grad);
    for (int p = 0; p < d; ++p) {
      int tok_pos = i + p;
      if (tok_pos >= n) break;
      table_->AccumulateGrad(ctx.token_ids[tok_pos],
                             ctx.dwindow.data() + p * emb, table_grads);
    }
  }
}

void ConvTextModule::Serialize(BinaryWriter& w) const {
  w.WriteMagic("CONV");
  w.WriteI32(window_size_);
  w.WriteI32(static_cast<int>(pool_));
  conv_.Serialize(w);
}

ConvTextModule ConvTextModule::Deserialize(
    BinaryReader& r, std::shared_ptr<EmbeddingTable> table) {
  r.ExpectMagic("CONV");
  int window_size = r.ReadI32();
  int pool = r.ReadI32();
  LinearLayer conv = LinearLayer::Deserialize(r);
  int out_dim = conv.out_dim();
  ConvTextModule m(std::move(table), window_size > 0 ? window_size : 1,
                   out_dim, static_cast<PoolType>(pool));
  if (r.ok()) {
    m.conv_ = std::move(conv);
  }
  return m;
}

}  // namespace nn
}  // namespace evrec
