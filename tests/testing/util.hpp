// Shared test helpers: finite-difference gradient checking and tensor
// comparison utilities.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace sh::testing {

/// splitmix64's finaliser: a well-mixed hash for deterministic test inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Bit-for-bit equality of two float arrays (so -0 differs from +0 and NaN
/// payloads count), reporting the first element that differs.
inline ::testing::AssertionResult bits_equal(std::span<const float> got,
                                             std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  if (want.empty() ||
      std::memcmp(got.data(), want.data(), want.size_bytes()) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0;; ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << got[i] << " want " << want[i];
    }
  }
}

inline void expect_allclose(std::span<const float> a, std::span<const float> b,
                            float atol = 1e-5f, float rtol = 1e-4f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = atol + rtol * std::abs(b[i]);
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

/// Scalar projection loss L = sum_i y_i * w_i with fixed random weights —
/// turns any layer output into a scalar for finite-difference checks.
struct ProjectionLoss {
  std::vector<float> w;

  explicit ProjectionLoss(std::int64_t n, std::uint64_t seed = 7) {
    w.resize(static_cast<std::size_t>(n));
    tensor::Rng rng(seed);
    rng.fill_uniform(w, 1.0f);
  }

  float value(const tensor::Tensor& y) const {
    return tensor::dot(y.data(), w.data(), y.numel());
  }

  tensor::Tensor grad(const tensor::Shape& shape) const {
    auto g = tensor::Tensor::zeros(shape);
    std::copy(w.begin(), w.end(), g.data());
    return g;
  }
};

/// Checks the analytic gradient of `loss_fn` (a function of the entries of
/// `x`) against central finite differences.
inline void check_gradient(std::span<float> x, std::span<const float> analytic,
                           const std::function<float()>& loss_fn,
                           float eps = 1e-3f, float atol = 2e-3f,
                           float rtol = 5e-2f) {
  ASSERT_EQ(x.size(), analytic.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float lp = loss_fn();
    x[i] = orig - eps;
    const float lm = loss_fn();
    x[i] = orig;
    const double numeric = (static_cast<double>(lp) - lm) / (2.0 * eps);
    const double tol = atol + rtol * std::abs(numeric);
    EXPECT_NEAR(analytic[i], numeric, tol) << "gradient mismatch at " << i;
  }
}

}  // namespace sh::testing
