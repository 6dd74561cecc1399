// BF16 <-> FP32 conversion kernels and the dtype-tagged StorageView.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/rng.hpp"

namespace sh::tensor {
namespace {

float from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }
std::uint32_t to_bits(float v) { return std::bit_cast<std::uint32_t>(v); }

TEST(Dtype, BytesPerElement) {
  EXPECT_EQ(bytes_per_element(DType::f32), 4u);
  EXPECT_EQ(bytes_per_element(DType::bf16), 2u);
}

TEST(Dtype, ParseDtypeAcceptsAliases) {
  EXPECT_EQ(parse_dtype("f32"), DType::f32);
  EXPECT_EQ(parse_dtype("FP32"), DType::f32);
  EXPECT_EQ(parse_dtype("float32"), DType::f32);
  EXPECT_EQ(parse_dtype("bf16"), DType::bf16);
  EXPECT_EQ(parse_dtype("BFloat16"), DType::bf16);
  EXPECT_THROW(parse_dtype("fp16"), std::invalid_argument);
  EXPECT_THROW(parse_dtype(""), std::invalid_argument);
}

TEST(Dtype, ParseRoundingAcceptsAliases) {
  EXPECT_EQ(parse_rounding("rne"), Rounding::nearest_even);
  EXPECT_EQ(parse_rounding("nearest_even"), Rounding::nearest_even);
  EXPECT_EQ(parse_rounding("SR"), Rounding::stochastic);
  EXPECT_EQ(parse_rounding("stochastic"), Rounding::stochastic);
  EXPECT_THROW(parse_rounding("up"), std::invalid_argument);
}

TEST(Bf16, RepresentableValuesRoundTripExactly) {
  const float exact[] = {0.0f,  -0.0f, 1.0f,   -1.0f, 0.5f,
                         2.0f,  -4.5f, 0.125f, 256.0f, 3.140625f};
  for (float v : exact) {
    const bf16 b = float_to_bf16(v);
    EXPECT_EQ(bf16_to_float(b), v) << v;
  }
  // Every bf16 value is exactly a f32 with zero low bits; decode/encode of
  // such a value must be the identity on the bit pattern.
  for (std::uint32_t hi : {0x3F80u, 0xC123u, 0x0001u, 0x7F7Fu}) {
    const float v = from_bits(hi << 16);
    EXPECT_EQ(float_to_bf16(v), static_cast<bf16>(hi));
  }
}

TEST(Bf16, RoundsToNearestEvenOnTies) {
  // Low half exactly 0x8000 is a tie. 0x3F80_8000: high LSB 0 -> stays even.
  EXPECT_EQ(float_to_bf16(from_bits(0x3F808000u)), 0x3F80);
  // 0x3F81_8000: high LSB 1 -> rounds up to even 0x3F82.
  EXPECT_EQ(float_to_bf16(from_bits(0x3F818000u)), 0x3F82);
  // Just below / above the tie go to the nearest value regardless of parity.
  EXPECT_EQ(float_to_bf16(from_bits(0x3F807FFFu)), 0x3F80);
  EXPECT_EQ(float_to_bf16(from_bits(0x3F808001u)), 0x3F81);
}

TEST(Bf16, InfinityPassesThrough) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_float(float_to_bf16(inf)), inf);
  EXPECT_EQ(bf16_to_float(float_to_bf16(-inf)), -inf);
  // Finite values that round past the bf16-finite range become infinity.
  const float huge = from_bits(0x7F7FFFFFu);  // f32 max: rounds up past max
  EXPECT_EQ(bf16_to_float(float_to_bf16(huge)), inf);
}

TEST(Bf16, NanStaysNanWithSign) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(nan))));
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(-nan))));
  // A signalling-style payload whose top mantissa bits are zero must not
  // collapse to infinity: the quiet bit is forced on.
  const float snan = from_bits(0x7F800001u);
  const bf16 b = float_to_bf16(snan);
  EXPECT_TRUE(std::isnan(bf16_to_float(b)));
  const float neg = from_bits(0xFF800001u);
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(neg))));
  EXPECT_TRUE(std::signbit(bf16_to_float(float_to_bf16(neg))));
}

TEST(Bf16, SubnormalsRoundLikeAnyOtherValue) {
  // A f32 subnormal with bit 16 set maps to the matching bf16 subnormal.
  EXPECT_EQ(float_to_bf16(from_bits(0x00010000u)), 0x0001);
  // The smallest f32 subnormal is far below half a bf16 ulp: rounds to +0.
  EXPECT_EQ(float_to_bf16(from_bits(0x00000001u)), 0x0000);
  // bf16 subnormals decode exactly.
  EXPECT_EQ(to_bits(bf16_to_float(bf16{0x0001})), 0x00010000u);
  EXPECT_EQ(to_bits(bf16_to_float(bf16{0x8001})), 0x80010000u);
}

TEST(Bf16, QuantizeInplaceMatchesRoundTrip) {
  Rng rng(7);
  std::vector<float> vals(257);
  rng.fill_uniform(vals, 3.0f);
  std::vector<float> quantized = vals;
  quantize_bf16_inplace(quantized.data(), quantized.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(quantized[i], bf16_to_float(float_to_bf16(vals[i])));
  }
}

TEST(Bf16, KnownBitPatterns) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(float_to_bf16(0.0f), 0x0000);
  EXPECT_EQ(float_to_bf16(-0.0f), 0x8000);
  EXPECT_EQ(float_to_bf16(1.0f), 0x3F80);
  EXPECT_EQ(float_to_bf16(-1.0f), 0xBF80);
  EXPECT_EQ(float_to_bf16(2.0f), 0x4000);
  EXPECT_EQ(float_to_bf16(0.5f), 0x3F00);
  // 1/3 is 0x3EAA_AAAB in f32: the dropped half is above the tie.
  EXPECT_EQ(float_to_bf16(1.0f / 3.0f), 0x3EAB);
  // The smallest normal is shared with f32.
  EXPECT_EQ(float_to_bf16(std::numeric_limits<float>::min()), 0x0080);
  EXPECT_EQ(bf16_to_float(0x0080), std::numeric_limits<float>::min());
  // Largest finite bf16: (2 - 2^-7) * 2^127.
  EXPECT_EQ(bf16_to_float(0x7F7F), std::ldexp(255.0f / 128.0f, 127));
  EXPECT_EQ(bf16_to_float(0x7F80), inf);
  EXPECT_EQ(bf16_to_float(0xFF80), -inf);
}

TEST(Bf16, RoundTripIsIdempotentWithinHalfAnUlp) {
  Rng rng(5);
  std::vector<float> vals(2000);
  rng.fill_normal(vals, 10.0f);
  for (float v : vals) {
    const float once = bf16_to_float(float_to_bf16(v));
    EXPECT_EQ(bf16_to_float(float_to_bf16(once)), once) << v;
    // Eight significant bits: one rounding errs by at most 2^-8 relative.
    EXPECT_LE(std::abs(once - v), std::abs(v) * std::ldexp(1.0f, -8)) << v;
  }
}

TEST(Bf16, BulkConversionsMatchScalar) {
  Rng rng(6);
  std::vector<float> src(257);
  rng.fill_uniform(src, 100.0f);
  src[0] = std::numeric_limits<float>::infinity();
  src[1] = -0.0f;
  src[2] = std::numeric_limits<float>::quiet_NaN();
  src[3] = from_bits(0x00010000u);  // subnormal
  src[4] = from_bits(0x7F7FFFFFu);  // rounds past the finite range
  std::vector<bf16> encoded(src.size());
  convert_float_to_bf16(src.data(), encoded.data(), src.size());
  std::vector<float> decoded(src.size());
  convert_bf16_to_float(encoded.data(), decoded.data(), encoded.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(encoded[i], float_to_bf16(src[i])) << "element " << i;
    EXPECT_EQ(to_bits(decoded[i]), to_bits(bf16_to_float(encoded[i])))
        << "element " << i;
  }
}

TEST(Bf16Stochastic, DeterministicUnderFixedSeed) {
  Rng rng_a(42), rng_b(42), rng_c(43);
  std::vector<float> vals(512);
  Rng fill(3);
  fill.fill_uniform(vals, 1.0f);
  std::vector<bf16> a(vals.size()), b(vals.size()), c(vals.size());
  convert_float_to_bf16_stochastic(vals.data(), a.data(), vals.size(), rng_a);
  convert_float_to_bf16_stochastic(vals.data(), b.data(), vals.size(), rng_b);
  convert_float_to_bf16_stochastic(vals.data(), c.data(), vals.size(), rng_c);
  EXPECT_EQ(a, b);   // same seed, same stream
  EXPECT_NE(a, c);   // different seed diverges
}

TEST(Bf16Stochastic, UnbiasedOnAverage) {
  // x sits 1/4 of the way between two adjacent bf16 values, so stochastic
  // rounding must go up ~25% of the time and the mean must recover x.
  const float lo = bf16_to_float(bf16{0x3F80});  // 1.0
  const float hi = bf16_to_float(bf16{0x3F81});
  const float x = from_bits(0x3F804000u);  // low bits 0x4000 = 1/4 gap
  Rng rng(9);
  double sum = 0.0;
  int ups = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const float r = bf16_to_float(float_to_bf16_stochastic(x, rng));
    EXPECT_TRUE(r == lo || r == hi);
    sum += r;
    ups += (r == hi);
  }
  const double up_rate = static_cast<double>(ups) / kTrials;
  EXPECT_NEAR(up_rate, 0.25, 0.02);
  EXPECT_NEAR(sum / kTrials, x, (hi - lo) * 0.02);
}

TEST(Bf16Stochastic, SpecialValuesAreNeverPerturbed) {
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    // inf + random low bits would be NaN without the passthrough.
    EXPECT_EQ(bf16_to_float(float_to_bf16_stochastic(inf, rng)), inf);
    EXPECT_EQ(bf16_to_float(float_to_bf16_stochastic(-inf, rng)), -inf);
    EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16_stochastic(
        std::numeric_limits<float>::quiet_NaN(), rng))));
  }
}

TEST(Bf16Stochastic, RoundsToAnAdjacentValue) {
  // Stochastic rounding only ever picks one of the two bf16 neighbours of x:
  // the truncation toward zero or the next value away from zero. A value
  // that is already representable is never moved.
  Rng fill(12);
  std::vector<float> vals(4096);
  fill.fill_uniform(vals, 50.0f);
  Rng rng(13);
  for (float v : vals) {
    const bf16 down = static_cast<bf16>(to_bits(v) >> 16);
    const bf16 r = float_to_bf16_stochastic(v, rng);
    EXPECT_TRUE(r == down || r == down + 1) << v;
    const float exact = from_bits(to_bits(v) & 0xFFFF0000u);
    EXPECT_EQ(float_to_bf16_stochastic(exact, rng), down) << exact;
  }
}

TEST(Bf16Stochastic, BulkMatchesScalarStream) {
  // The bulk kernel draws exactly one random word per element, in order, as
  // the scalar conversion does: engine streams keyed on (seed, layer, event)
  // therefore fix every rounded byte.
  Rng fill(14);
  std::vector<float> vals(300);
  fill.fill_uniform(vals, 4.0f);
  Rng bulk_rng(21), scalar_rng(21);
  std::vector<bf16> bulk(vals.size());
  convert_float_to_bf16_stochastic(vals.data(), bulk.data(), vals.size(),
                                   bulk_rng);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(bulk[i], float_to_bf16_stochastic(vals[i], scalar_rng))
        << "element " << i;
  }
  EXPECT_EQ(bulk_rng.next_u64(), scalar_rng.next_u64());
}

TEST(MixSeed, DistinctStreamsPerEvent) {
  const std::uint64_t base = mix_seed(1, 2, 3);
  EXPECT_NE(base, mix_seed(1, 2, 4));  // next event
  EXPECT_NE(base, mix_seed(1, 3, 3));  // next layer
  EXPECT_NE(base, mix_seed(2, 2, 3));  // other config seed
  EXPECT_EQ(base, mix_seed(1, 2, 3));  // pure function
}

TEST(StorageView, TypedAccessorsEnforceDtype) {
  float f[4] = {1, 2, 3, 4};
  StorageView fv(f, DType::f32, 4);
  EXPECT_EQ(fv.size_bytes(), 16u);
  EXPECT_EQ(fv.f32(), f);
  EXPECT_THROW(fv.b16(), std::logic_error);

  bf16 b[4] = {};
  StorageView bv(b, DType::bf16, 4);
  EXPECT_EQ(bv.size_bytes(), 8u);
  EXPECT_EQ(bv.b16(), b);
  EXPECT_THROW(bv.f32(), std::logic_error);
  EXPECT_FALSE(StorageView().defined());
}

TEST(StorageView, LoadStoreRoundsThroughTheEncoding) {
  bf16 b[2] = {};
  StorageView view(b, DType::bf16, 2);
  view.store(0, 1.0f);
  view.store(1, from_bits(0x3F808001u));  // above the tie: rounds up
  EXPECT_EQ(view.load(0), 1.0f);
  EXPECT_EQ(view.load(1), bf16_to_float(bf16{0x3F81}));

  float f[1] = {};
  StorageView fview(f, DType::f32, 1);
  const float odd = from_bits(0x3F808001u);
  fview.store(0, odd);
  EXPECT_EQ(fview.load(0), odd);  // f32 stores are exact
}

TEST(StorageView, BulkEncodeDecodeAndSubview) {
  std::vector<float> src(64);
  Rng rng(11);
  rng.fill_uniform(src, 2.0f);

  std::vector<bf16> storage(64);
  StorageView view(storage.data(), DType::bf16, 64);
  view.encode(src.data(), 64);
  std::vector<float> out(64);
  view.decode(out.data(), 64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i], bf16_to_float(float_to_bf16(src[i])));
  }

  // Subview shares storage at an element offset.
  StorageView tail = view.subview(32, 32);
  EXPECT_EQ(tail.numel(), 32u);
  std::vector<float> tail_out(32);
  tail.decode(tail_out.data(), 32);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(tail_out[i], out[32 + i]);

  // Stochastic bulk encode is deterministic for a given Rng.
  std::vector<bf16> s1(64), s2(64);
  Rng ra(5), rb(5);
  StorageView v1(s1.data(), DType::bf16, 64), v2(s2.data(), DType::bf16, 64);
  v1.encode(src.data(), 64, Rounding::stochastic, ra);
  v2.encode(src.data(), 64, Rounding::stochastic, rb);
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace sh::tensor
