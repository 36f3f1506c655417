#include "evrec/model/tower_head.h"

#include "evrec/la/vec_ops.h"

namespace evrec {
namespace model {

TowerHead::TowerHead(int in_dim, int hidden_dim, int rep_dim,
                     bool residual_bypass)
    : hidden_layer_(in_dim, hidden_dim, /*has_bias=*/true),
      projection_(hidden_dim, rep_dim, /*has_bias=*/true),
      bypass_(in_dim, rep_dim, /*has_bias=*/false),
      residual_bypass_(residual_bypass) {}

void TowerHead::XavierInit(Rng& rng) {
  hidden_layer_.XavierInit(rng);
  projection_.XavierInit(rng);
  if (residual_bypass_) bypass_.XavierInit(rng);
}

void TowerHead::Forward(const float* x, Context* ctx) const {
  const int in = in_dim();
  const int hid = hidden_dim();
  const int rep = rep_dim();
  ctx->x.assign(x, x + in);
  ctx->h.resize(static_cast<size_t>(hid));
  ctx->rep.resize(static_cast<size_t>(rep));

  ctx->pre_h.resize(static_cast<size_t>(hid));
  hidden_layer_.Forward(x, ctx->pre_h.data());
  la::TanhForward(ctx->pre_h.data(), ctx->h.data(), hid);

  ctx->pre_r.resize(static_cast<size_t>(rep));
  projection_.Forward(ctx->h.data(), ctx->pre_r.data());
  if (residual_bypass_) {
    ctx->bypass_out.resize(static_cast<size_t>(rep));
    bypass_.Forward(x, ctx->bypass_out.data());
    la::Axpy(1.0f, ctx->bypass_out.data(), ctx->pre_r.data(), rep);
  }
  la::TanhForward(ctx->pre_r.data(), ctx->rep.data(), rep);
}

namespace {

// Backward temporaries live in the context so repeated calls stop
// allocating; this prepares them for one pass.
void PrepareBackwardScratch(const TowerHead::Context& ctx, int hid, int rep) {
  ctx.dpre_r.resize(static_cast<size_t>(rep));
  ctx.dh.assign(static_cast<size_t>(hid), 0.0f);
  ctx.dpre_h.resize(static_cast<size_t>(hid));
}

}  // namespace

void TowerHead::Backward(const float* drep, const Context& ctx, float* dx,
                         float* grads) const {
  const int hid = hidden_dim();
  const int rep = rep_dim();
  PrepareBackwardScratch(ctx, hid, rep);
  float* hidden_grad = grads;
  float* projection_grad = hidden_grad + hidden_layer_.num_params();
  float* bypass_grad = projection_grad + projection_.num_params();

  // Through the representation tanh.
  la::TanhBackward(ctx.rep.data(), drep, ctx.dpre_r.data(), rep);

  // Through the projection (and bypass) into dh / dx.
  projection_.Backward(ctx.h.data(), ctx.dpre_r.data(), ctx.dh.data(),
                       projection_grad);
  if (residual_bypass_) {
    bypass_.Backward(ctx.x.data(), ctx.dpre_r.data(), dx, bypass_grad);
  }

  // Through the hidden tanh and the affine layer.
  la::TanhBackward(ctx.h.data(), ctx.dh.data(), ctx.dpre_h.data(), hid);
  hidden_layer_.Backward(ctx.x.data(), ctx.dpre_h.data(), dx, hidden_grad);
}

void TowerHead::Serialize(BinaryWriter& w) const {
  w.WriteMagic("HEAD");
  w.WriteI32(residual_bypass_ ? 1 : 0);
  hidden_layer_.Serialize(w);
  projection_.Serialize(w);
  bypass_.Serialize(w);
}

TowerHead TowerHead::Deserialize(BinaryReader& r) {
  r.ExpectMagic("HEAD");
  int bypass = r.ReadI32();
  nn::LinearLayer hidden = nn::LinearLayer::Deserialize(r);
  nn::LinearLayer projection = nn::LinearLayer::Deserialize(r);
  nn::LinearLayer bypass_layer = nn::LinearLayer::Deserialize(r);
  TowerHead head(hidden.in_dim(), hidden.out_dim(), projection.out_dim(),
                 bypass != 0);
  if (r.ok()) {
    head.hidden_layer_ = std::move(hidden);
    head.projection_ = std::move(projection);
    head.bypass_ = std::move(bypass_layer);
  }
  return head;
}

}  // namespace model
}  // namespace evrec
