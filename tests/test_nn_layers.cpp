// Gradient checks and behavioural tests for every nn layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/attention.hpp"
#include "nn/block.hpp"
#include "nn/embedding.hpp"
#include "nn/gpt.hpp"
#include "nn/head.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "testing/util.hpp"

namespace sh::nn {
namespace {

using sh::tensor::Rng;
using sh::tensor::Tensor;
using sh::testing::check_gradient;
using sh::testing::ProjectionLoss;

/// Runs forward, projects to a scalar loss, runs backward and finite-diff
/// checks both the parameter gradient and the input gradient.
void gradcheck_layer(Layer& layer, Tensor& x, const BatchShape& shape,
                     std::int64_t out_numel) {
  OwnedStorage storage(layer.param_count());
  layer.bind(storage.params(), storage.grads());
  Rng rng(101);
  layer.init(rng);

  ProjectionLoss loss(out_numel);
  auto loss_fn = [&] { return loss.value(layer.forward(x, shape)); };

  storage.zero_grads();
  auto y = layer.forward(x, shape);
  ASSERT_EQ(y.numel(), out_numel);
  auto gx = layer.backward(loss.grad(y.shape()), shape);

  // Parameter gradients.
  check_gradient({storage.params(), static_cast<std::size_t>(storage.count())},
                 {storage.grads(), static_cast<std::size_t>(storage.count())},
                 loss_fn);
  // Input gradients (layers that consume activations).
  if (gx.defined()) {
    check_gradient(x.span(), gx.span(), loss_fn);
  }
}

TEST(Linear, GradCheck) {
  Linear layer("fc", 5, 7);
  Rng rng(1);
  auto x = Tensor::zeros({3, 5});
  rng.fill_uniform(x.span(), 1.0f);
  gradcheck_layer(layer, x, {3, 1}, 3 * 7);
}

TEST(Linear, ForwardMatchesManualComputation) {
  Linear layer("fc", 2, 2);
  OwnedStorage storage(layer.param_count());
  layer.bind(storage.params(), storage.grads());
  // W = [[1, 2], [3, 4]], b = [10, 20].
  storage.params()[0] = 1;
  storage.params()[1] = 2;
  storage.params()[2] = 3;
  storage.params()[3] = 4;
  storage.params()[4] = 10;
  storage.params()[5] = 20;
  auto x = Tensor::zeros({1, 2});
  x.at(0) = 1.0f;
  x.at(1) = 1.0f;
  auto y = layer.forward(x, {1, 1});
  EXPECT_FLOAT_EQ(y.at(0), 13.0f);  // 1+2+10
  EXPECT_FLOAT_EQ(y.at(1), 27.0f);  // 3+4+20
}

TEST(Linear, GradAccumulatesAcrossBackwardCalls) {
  Linear layer("fc", 2, 2);
  OwnedStorage storage(layer.param_count());
  layer.bind(storage.params(), storage.grads());
  Rng rng(2);
  layer.init(rng);
  auto x = Tensor::full({1, 2}, 1.0f);
  auto g = Tensor::full({1, 2}, 1.0f);
  layer.forward(x, {1, 1});
  layer.backward(g, {1, 1});
  const float after_one = storage.grads()[0];
  layer.forward(x, {1, 1});
  layer.backward(g, {1, 1});
  EXPECT_FLOAT_EQ(storage.grads()[0], 2.0f * after_one);
}

TEST(LayerNorm, GradCheck) {
  LayerNorm layer("ln", 6);
  Rng rng(3);
  auto x = Tensor::zeros({4, 6});
  rng.fill_uniform(x.span(), 2.0f);
  gradcheck_layer(layer, x, {4, 1}, 4 * 6);
}

TEST(Attention, GradCheck) {
  CausalSelfAttention layer("attn", 8, 2);
  Rng rng(4);
  const BatchShape shape{2, 3};
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);
  gradcheck_layer(layer, x, shape, shape.tokens() * 8);
}

TEST(Attention, RejectsIndivisibleHeads) {
  EXPECT_THROW(CausalSelfAttention("attn", 10, 3), std::invalid_argument);
}

TEST(Attention, IsCausal) {
  // Changing a later token must not affect earlier outputs.
  CausalSelfAttention layer("attn", 8, 2);
  OwnedStorage storage(layer.param_count());
  layer.bind(storage.params(), storage.grads());
  Rng rng(5);
  layer.init(rng);
  const BatchShape shape{1, 4};
  auto x = Tensor::zeros({4, 8});
  rng.fill_uniform(x.span(), 1.0f);
  auto y1 = layer.forward(x, shape).clone();
  x.at(3 * 8 + 0) += 10.0f;  // perturb the last token
  auto y2 = layer.forward(x, shape);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t c = 0; c < 8; ++c) {
      EXPECT_FLOAT_EQ(y1.at(t * 8 + c), y2.at(t * 8 + c))
          << "token " << t << " changed by future perturbation";
    }
  }
}

TEST(Mlp, GradCheck) {
  Mlp layer("mlp", 6);
  Rng rng(6);
  auto x = Tensor::zeros({3, 6});
  rng.fill_uniform(x.span(), 1.0f);
  gradcheck_layer(layer, x, {3, 1}, 3 * 6);
}

TEST(TransformerBlock, GradCheck) {
  TransformerBlock layer("blk", 8, 2);
  Rng rng(7);
  const BatchShape shape{2, 3};
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);
  gradcheck_layer(layer, x, shape, shape.tokens() * 8);
}

TEST(TransformerBlock, CheckpointingMatchesNonCheckpointed) {
  const BatchShape shape{2, 4};
  Rng rng(8);
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);
  auto g = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(g.span(), 1.0f);

  TransformerBlock plain("blk", 8, 2, /*checkpoint=*/false);
  TransformerBlock ckpt("blk", 8, 2, /*checkpoint=*/true);
  OwnedStorage sp(plain.param_count()), sc(ckpt.param_count());
  plain.bind(sp.params(), sp.grads());
  ckpt.bind(sc.params(), sc.grads());
  Rng ra(9), rb(9);
  plain.init(ra);
  ckpt.init(rb);

  auto yp = plain.forward(x, shape);
  auto yc = ckpt.forward(x, shape);
  EXPECT_TRUE(plain.has_live_caches());
  EXPECT_FALSE(ckpt.has_live_caches());
  sh::testing::expect_allclose(yp.span(), yc.span(), 0.0f, 0.0f);

  auto gp = plain.backward(g, shape);
  auto gc = ckpt.backward(g, shape);
  sh::testing::expect_allclose(gp.span(), gc.span(), 0.0f, 0.0f);
  sh::testing::expect_allclose(
      {sp.grads(), static_cast<std::size_t>(sp.count())},
      {sc.grads(), static_cast<std::size_t>(sc.count())}, 0.0f, 0.0f);
}

TEST(Embedding, GradCheckOnTables) {
  Embedding layer("emb", 10, 4, 6);
  OwnedStorage storage(layer.param_count());
  layer.bind(storage.params(), storage.grads());
  Rng rng(10);
  layer.init(rng);
  const BatchShape shape{2, 3};
  layer.set_ids({1, 5, 1, 9, 0, 5});

  ProjectionLoss loss(shape.tokens() * 6);
  auto loss_fn = [&] { return loss.value(layer.forward({}, shape)); };
  storage.zero_grads();
  auto y = layer.forward({}, shape);
  auto gx = layer.backward(loss.grad(y.shape()), shape);
  EXPECT_FALSE(gx.defined());  // first layer: no upstream gradient
  check_gradient({storage.params(), static_cast<std::size_t>(storage.count())},
                 {storage.grads(), static_cast<std::size_t>(storage.count())},
                 loss_fn);
}

TEST(Embedding, ThrowsWithoutStagedIds) {
  Embedding layer("emb", 10, 4, 6);
  OwnedStorage storage(layer.param_count());
  layer.bind(storage.params(), storage.grads());
  EXPECT_THROW(layer.forward({}, {2, 3}), std::logic_error);
}

TEST(Embedding, SetIdsRejectsOutOfRangeIds) {
  // An id outside [0, vocab) would read past the token table in forward and
  // write past its gradient in backward.
  Embedding layer("emb", 10, 4, 6);
  EXPECT_THROW(layer.set_ids({1, 10}), std::out_of_range);
  EXPECT_THROW(layer.set_ids({-1, 2}), std::out_of_range);
  EXPECT_NO_THROW(layer.set_ids({0, 9}));
}

TEST(LmLoss, RejectsOutOfRangeTargets) {
  auto logits = Tensor::zeros({2, 5});
  Tensor grad;
  const std::vector<std::int32_t> over = {1, 5};
  const std::vector<std::int32_t> under = {-1, 0};
  EXPECT_THROW(sh::nn::lm_loss(logits, over, grad), std::out_of_range);
  EXPECT_THROW(sh::nn::lm_loss(logits, under, grad), std::out_of_range);
  const std::vector<std::int32_t> ok = {0, 4};
  EXPECT_FLOAT_EQ(sh::nn::lm_loss(logits, ok, grad), std::log(5.0f));
}

TEST(LmHead, GradCheck) {
  LmHead layer("head", 6, 9);
  Rng rng(12);
  auto x = Tensor::zeros({4, 6});
  rng.fill_uniform(x.span(), 1.0f);
  gradcheck_layer(layer, x, {4, 1}, 4 * 9);
}

TEST(Layers, RebindMovesParameters) {
  // Simulates what the offload engine does: compute with params in buffer A,
  // rebind to buffer B holding the same values, results must be identical.
  Linear layer("fc", 4, 4);
  OwnedStorage a(layer.param_count());
  std::vector<float> b_params(static_cast<std::size_t>(layer.param_count()));
  std::vector<float> b_grads(static_cast<std::size_t>(layer.param_count()), 0.0f);

  layer.bind(a.params(), a.grads());
  Rng rng(13);
  layer.init(rng);
  auto x = Tensor::full({2, 4}, 0.5f);
  auto y1 = layer.forward(x, {2, 1}).clone();

  std::copy_n(a.params(), layer.param_count(), b_params.data());
  layer.bind(b_params.data(), b_grads.data());
  auto y2 = layer.forward(x, {2, 1});
  sh::testing::expect_allclose(y1.span(), y2.span(), 0.0f, 0.0f);
}

}  // namespace
}  // namespace sh::nn
