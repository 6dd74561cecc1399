#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "optim/optimizer.hpp"
#include "testing/util.hpp"

namespace sh::optim {
namespace {

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Sgd sgd({.lr = 0.1f, .momentum = 0.0f});
  EXPECT_EQ(sgd.state_per_param(), 0);
  std::vector<float> p = {1.0f, -2.0f};
  std::vector<float> g = {0.5f, -0.5f};
  sgd.step(p.data(), g.data(), nullptr, 1, 2);
  EXPECT_FLOAT_EQ(p[0], 0.95f);
  EXPECT_FLOAT_EQ(p[1], -1.95f);
}

TEST(Sgd, MomentumAccumulates) {
  Sgd sgd({.lr = 1.0f, .momentum = 0.5f});
  EXPECT_EQ(sgd.state_per_param(), 1);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f};
  std::vector<float> state = {0.0f};
  sgd.step(p.data(), g.data(), state.data(), 1, 1);
  EXPECT_FLOAT_EQ(p[0], -1.0f);  // v = 1
  sgd.step(p.data(), g.data(), state.data(), 2, 1);
  EXPECT_FLOAT_EQ(p[0], -2.5f);  // v = 1.5
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  Adam adam({.lr = 0.01f});
  std::vector<float> p = {1.0f};
  std::vector<float> g = {123.0f};
  std::vector<float> state(2, 0.0f);
  adam.step(p.data(), g.data(), state.data(), 1, 1);
  EXPECT_NEAR(p[0], 1.0f - 0.01f, 1e-5f);
}

TEST(Adam, MatchesScalarReferenceOverManySteps) {
  const AdamConfig cfg{.lr = 0.1f, .beta1 = 0.9f, .beta2 = 0.99f, .eps = 1e-8f};
  Adam adam(cfg);
  float p = 2.0f;
  std::vector<float> state(2, 0.0f);
  // Reference implementation.
  double rp = 2.0, rm = 0.0, rv = 0.0;
  for (int t = 1; t <= 50; ++t) {
    const float g = static_cast<float>(rp);  // gradient of 0.5*p^2 at ref point
    float pf = p;
    adam.step(&pf, &g, state.data(), t, 1);
    rm = cfg.beta1 * rm + (1 - cfg.beta1) * g;
    rv = cfg.beta2 * rv + (1 - cfg.beta2) * static_cast<double>(g) * g;
    const double mhat = rm / (1 - std::pow(cfg.beta1, t));
    const double vhat = rv / (1 - std::pow(cfg.beta2, t));
    rp = rp - cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
    p = pf;
    ASSERT_NEAR(p, rp, 1e-4) << "step " << t;
  }
  // Adam on a convex quadratic must approach the optimum.
  EXPECT_LT(std::abs(p), 2.0f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Adam adam({.lr = 0.05f});
  std::vector<float> p = {5.0f, -3.0f};
  std::vector<float> state(4, 0.0f);
  for (int t = 1; t <= 500; ++t) {
    std::vector<float> g = {p[0], p[1]};
    adam.step(p.data(), g.data(), state.data(), t, 2);
  }
  EXPECT_NEAR(p[0], 0.0f, 0.05f);
  EXPECT_NEAR(p[1], 0.0f, 0.05f);
}

TEST(Adam, WeightDecayShrinksParams) {
  Adam plain({.lr = 0.01f, .weight_decay = 0.0f});
  Adam decayed({.lr = 0.01f, .weight_decay = 0.5f});
  float p1 = 1.0f, p2 = 1.0f;
  std::vector<float> s1(2, 0.0f), s2(2, 0.0f);
  const float g = 0.0f;
  plain.step(&p1, &g, s1.data(), 1, 1);
  decayed.step(&p2, &g, s2.data(), 1, 1);
  EXPECT_LT(p2, p1);
}

TEST(Adam, CloneIsIndependentButEquivalent) {
  Adam adam({.lr = 0.07f});
  auto copy = adam.clone();
  EXPECT_EQ(copy->state_per_param(), 2);
  float pa = 1.0f, pb = 1.0f;
  std::vector<float> sa(2, 0.0f), sb(2, 0.0f);
  const float g = 0.3f;
  adam.step(&pa, &g, sa.data(), 1, 1);
  copy->step(&pb, &g, sb.data(), 1, 1);
  EXPECT_FLOAT_EQ(pa, pb);
}

TEST(Adam, StateLayoutIsMomentumThenVariance) {
  Adam adam({.lr = 1.0f, .beta1 = 0.5f, .beta2 = 0.5f});
  std::vector<float> p = {0.0f, 0.0f};
  std::vector<float> g = {2.0f, 4.0f};
  std::vector<float> state(4, 0.0f);
  adam.step(p.data(), g.data(), state.data(), 1, 2);
  // m = (1-b1)*g, stored first; v = (1-b2)*g^2 stored second.
  EXPECT_FLOAT_EQ(state[0], 1.0f);
  EXPECT_FLOAT_EQ(state[1], 2.0f);
  EXPECT_FLOAT_EQ(state[2], 2.0f);
  EXPECT_FLOAT_EQ(state[3], 8.0f);
}

// Bit identity with scalar references. The library's update loops are
// vectorised; each element must still run the scalar operation sequence,
// with no FMA contraction and no reassociation. Lengths cover every
// vector-tail case (AVX-512 holds 16 floats, SSE 4).

constexpr std::int64_t kLengths[] = {1, 7, 8, 15, 16, 17, 1023, 789763};

/// Uniform in [-1, 1), from (stream, i).
float uniform(std::uint64_t stream, std::int64_t i) {
  const std::uint64_t x =
      testing::mix64(stream * 0x100000000ull + static_cast<std::uint64_t>(i));
  return static_cast<float>(x >> 40) / 8388608.0f - 1.0f;
}

/// Gradients holding 0, subnormals and ±1e30 among ordinary values.
float edge_grad(std::int64_t i) {
  switch (testing::mix64(static_cast<std::uint64_t>(i)) % 8) {
    case 0:
      return 0.0f;
    case 1:
      return std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + i % 1000);
    case 2:
      return -3e-39f;
    case 3:
      return i % 2 == 0 ? 1e30f : -1e30f;
    default:
      return uniform(1, i);
  }
}

/// Adam::step one element at a time, in its operation order.
void reference_adam(const AdamConfig& c, float* p, const float* g, float* m,
                    float* v, std::int64_t t, std::int64_t n) {
  // Through a volatile, so powf runs at run time as in the library rather
  // than being folded by the compiler.
  const volatile float step = static_cast<float>(t);
  const float bc1 = 1.0f - std::pow(c.beta1, static_cast<float>(step));
  const float bc2 = 1.0f - std::pow(c.beta2, static_cast<float>(step));
  for (std::int64_t i = 0; i < n; ++i) {
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * g[i];
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * g[i] * g[i];
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    float q = p[i];
    if (c.weight_decay != 0.0f) q -= c.lr * c.weight_decay * q;
    p[i] = q - c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

TEST(Adam, StepIsBitIdenticalToScalarReference) {
  for (const std::int64_t n : kLengths) {
    for (const float wd : {0.0f, 0.01f}) {
      for (const std::int64_t t : {std::int64_t{1}, std::int64_t{10000}}) {
        SCOPED_TRACE("n " + std::to_string(n) + " wd " + std::to_string(wd) +
                     " t " + std::to_string(t));
        const AdamConfig cfg{.lr = 1e-3f, .weight_decay = wd};
        const auto len = static_cast<std::size_t>(n);
        std::vector<float> p(len), g(len), state(2 * len);
        for (std::int64_t i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          p[k] = uniform(2, i);
          g[k] = edge_grad(i);
          state[k] = 0.1f * uniform(3, i);                  // momentum
          state[len + k] = 0.01f * std::abs(uniform(4, i));  // variance
        }
        std::vector<float> want_p = p, want_state = state;
        reference_adam(cfg, want_p.data(), g.data(), want_state.data(),
                       want_state.data() + n, t, n);
        Adam(cfg).step(p.data(), g.data(), state.data(), t, n);
        EXPECT_TRUE(testing::bits_equal(p, want_p));
        EXPECT_TRUE(testing::bits_equal(state, want_state));
      }
    }
  }
}

TEST(Sgd, StepIsBitIdenticalToScalarReference) {
  for (const std::int64_t n : kLengths) {
    for (const float mu : {0.0f, 0.9f}) {
      SCOPED_TRACE("n " + std::to_string(n) + " momentum " +
                   std::to_string(mu));
      const float lr = 0.01f;
      const auto len = static_cast<std::size_t>(n);
      std::vector<float> p(len), g(len), state(len);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        p[k] = uniform(5, i);
        g[k] = edge_grad(i);
        state[k] = uniform(6, i);
      }
      std::vector<float> want_p = p, want_state = state;
      for (std::size_t i = 0; i < len; ++i) {
        if (mu == 0.0f) {
          want_p[i] -= lr * g[i];
        } else {
          want_state[i] = mu * want_state[i] + g[i];
          want_p[i] -= lr * want_state[i];
        }
      }
      Sgd({.lr = lr, .momentum = mu})
          .step(p.data(), g.data(), state.data(), 1, n);
      EXPECT_TRUE(testing::bits_equal(p, want_p));
      EXPECT_TRUE(testing::bits_equal(state, want_state));
    }
  }
}

}  // namespace
}  // namespace sh::optim
