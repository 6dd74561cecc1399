// OptimizerPool: concurrent CPU parameter updates (Section III-E1). Every
// update thread steps the one shared, stateless optimizer; the moments live
// in each LayerState.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/layer_store.hpp"
#include "core/optimizer_pool.hpp"
#include "optim/optimizer.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

/// A host-only layer state with `n` params, deterministic params and grads,
/// and zeroed Adam moments.
LayerState make_state(std::size_t index, std::int64_t n) {
  LayerState st;
  st.index = index;
  st.params = n;
  st.cpu_params.resize(static_cast<std::size_t>(n));
  st.cpu_grads.resize(static_cast<std::size_t>(n));
  st.cpu_opt.assign(static_cast<std::size_t>(2 * n), 0.0f);
  for (std::int64_t j = 0; j < n; ++j) {
    const auto k = static_cast<std::size_t>(j);
    st.cpu_params[k] = 0.01f * static_cast<float>((index * 7 + k) % 13) - 0.06f;
    st.cpu_grads[k] = 0.003f * static_cast<float>((index * 5 + k) % 11) - 0.015f;
  }
  return st;
}

TEST(OptimizerPool, ConcurrentUpdatesThroughOneOptimizerMatchSerialSteps) {
  // Eight layers, four update threads, three steps each: the moments each
  // step leaves behind stay with its own layer, so every layer ends
  // bitwise where the same steps taken one by one on the caller end.
  const optim::Adam adam({.lr = 0.05f, .weight_decay = 0.01f});
  constexpr std::size_t kLayers = 8;
  constexpr int kSteps = 3;
  std::vector<LayerState> pooled, serial;
  for (std::size_t i = 0; i < kLayers; ++i) {
    pooled.push_back(make_state(i, 257 + static_cast<std::int64_t>(i)));
    serial.push_back(make_state(i, 257 + static_cast<std::int64_t>(i)));
  }

  OptimizerPool pool(adam, 4);
  EXPECT_EQ(pool.workers(), 4u);
  for (int s = 0; s < kSteps; ++s) {
    for (auto& st : pooled) pool.submit(st);
    pool.wait_all();
  }
  for (auto& st : serial) {
    for (int s = 1; s <= kSteps; ++s) {
      adam.step(st.cpu_params.data(), st.cpu_grads.data(), st.cpu_opt.data(),
                s, st.params);
    }
  }

  EXPECT_EQ(pool.updates_completed(), kLayers * kSteps);
  for (std::size_t i = 0; i < kLayers; ++i) {
    SCOPED_TRACE("layer " + std::to_string(i));
    EXPECT_EQ(pooled[i].step, kSteps);
    EXPECT_TRUE(sh::testing::bits_equal(pooled[i].cpu_params,
                                        serial[i].cpu_params));
    EXPECT_TRUE(sh::testing::bits_equal(pooled[i].cpu_opt, serial[i].cpu_opt));
  }
}

TEST(OptimizerPool, InFlightCountsAnUpdateUntilItDrains) {
  // An update gated on a copy that has not landed stays queued: it counts
  // in in_flight(), leaves the layer untouched, and its future is pending.
  const optim::Adam adam;
  OptimizerPool pool(adam, 2);
  LayerState st = make_state(0, 64);
  const std::vector<float> before = st.cpu_params;

  std::promise<void> copied;
  const auto done = pool.submit(st, copied.get_future().share());
  EXPECT_GE(pool.in_flight(), 1u);
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  EXPECT_EQ(st.step, 0);
  EXPECT_EQ(pool.updates_completed(), 0u);

  copied.set_value();
  pool.wait_all();
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(done.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(st.step, 1);
  EXPECT_EQ(pool.updates_completed(), 1u);
  EXPECT_FALSE(sh::testing::bits_equal(st.cpu_params, before));
}

TEST(OptimizerPool, SubmittedLrOverridesTheRateAndPostUpdateSeesTheStep) {
  // A schedule's per-step rate rides with the submit; the post-update hook
  // (the tier write-back) runs after the step, on the stepped params.
  // update_now takes the same step on the caller's thread.
  const optim::Adam adam({.lr = 1e-3f});
  OptimizerPool pool(adam, 2);
  LayerState queued = make_state(3, 96);
  LayerState now = make_state(3, 96);
  LayerState ref = make_state(3, 96);
  adam.step(ref.cpu_params.data(), ref.cpu_grads.data(), ref.cpu_opt.data(), 1,
            ref.params, 0.25f);

  std::vector<float> seen;
  std::int64_t seen_step = 0;
  pool.submit(
          queued, {},
          [&] {
            seen = queued.cpu_params;
            seen_step = queued.step;
          },
          0.25f)
      .get();
  pool.update_now(now, now.cpu_params.data(), now.cpu_grads.data(), 0.25f);

  EXPECT_EQ(seen_step, 1);
  EXPECT_TRUE(sh::testing::bits_equal(seen, ref.cpu_params));
  EXPECT_TRUE(sh::testing::bits_equal(queued.cpu_params, ref.cpu_params));
  EXPECT_TRUE(sh::testing::bits_equal(queued.cpu_opt, ref.cpu_opt));
  EXPECT_TRUE(sh::testing::bits_equal(now.cpu_params, ref.cpu_params));
  EXPECT_TRUE(sh::testing::bits_equal(now.cpu_opt, ref.cpu_opt));
  EXPECT_EQ(now.step, 1);
  EXPECT_EQ(pool.updates_completed(), 2u);
}

}  // namespace
}  // namespace sh::core
