#include <cmath>
#include <thread>

#include "bench.hpp"
#include "dist/process_group.hpp"
#include "tensor/attention_kernel.hpp"
#include "tensor/dtype.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace pb {

namespace {

constexpr double kProbeBudgetS = 0.3;

/// Median seconds per call of `fn` over about kProbeBudgetS (at least five
/// calls, after one untimed warm-up call).
template <class Fn>
double time_median(Fn&& fn) {
  fn();
  std::vector<double> samples;
  const double start = now();
  while (samples.size() < 5 || now() - start < kProbeBudgetS) {
    const double t0 = now();
    fn();
    samples.push_back(now() - t0);
  }
  return percentile(std::move(samples), 0.5);
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  sh::tensor::Rng rng(seed);
  rng.fill_uniform(v, 1.0f);
  return v;
}

}  // namespace

double probe_gemm_gflops(std::int64_t tokens, std::int64_t hidden) {
  struct Linear {
    std::int64_t in, out;
  };
  const Linear layers[] = {{hidden, 3 * hidden},
                           {hidden, hidden},
                           {hidden, 4 * hidden},
                           {4 * hidden, hidden}};
  const auto wide = static_cast<std::size_t>(4 * hidden);
  const auto rows = static_cast<std::size_t>(tokens);
  std::vector<float> x = random_floats(rows * wide, 1);
  std::vector<float> w = random_floats(wide * wide, 2);
  std::vector<float> dy = random_floats(rows * wide, 3);
  std::vector<float> y(rows * wide), dx(rows * wide), dw(wide * wide);
  double flops = 0.0;
  for (const Linear& l : layers) {
    flops += 3.0 * 2.0 * static_cast<double>(tokens * l.in * l.out);
  }
  // The calls nn::Linear makes: y = x W^T, dX = dY W, dW += dY^T X.
  const double s = time_median([&] {
    for (const Linear& l : layers) {
      sh::tensor::matmul(x.data(), w.data(), y.data(), tokens, l.out, l.in,
                         false, true);
      sh::tensor::matmul(dy.data(), w.data(), dx.data(), tokens, l.in, l.out,
                         false, false);
      sh::tensor::matmul(dy.data(), x.data(), dw.data(), l.out, l.in, tokens,
                         true, false, 1.0f, 1.0f);
    }
  });
  return flops / s * 1e-9;
}

double probe_attention_ms(std::int64_t batch, std::int64_t heads,
                          std::int64_t seq, std::int64_t hidden) {
  using sh::tensor::AttnPlanes;
  using sh::tensor::AttnPlanesMut;
  const std::int64_t hd = hidden / heads;
  const auto tokens = static_cast<std::size_t>(batch * seq);
  const auto h = static_cast<std::size_t>(hidden);
  // Q/K/V are head slices of one [tokens, 3*hidden] activation, as in
  // nn::CausalSelfAttention.
  std::vector<float> qkv = random_floats(tokens * 3 * h, 4);
  std::vector<float> d_out = random_floats(tokens * h, 5);
  std::vector<float> out(tokens * h), d_qkv(tokens * 3 * h);
  std::vector<float> row_max(static_cast<std::size_t>(batch * heads * seq));
  std::vector<float> row_sum(row_max.size());
  const std::int64_t qs = seq * 3 * hidden;
  const std::int64_t os = seq * hidden;
  const AttnPlanes q{qkv.data(), qs, hd, 3 * hidden};
  const AttnPlanes k{qkv.data() + hidden, qs, hd, 3 * hidden};
  const AttnPlanes v{qkv.data() + 2 * hidden, qs, hd, 3 * hidden};
  const AttnPlanesMut o{out.data(), os, hd, hidden};
  const AttnPlanes oc{out.data(), os, hd, hidden};
  const AttnPlanes dout{d_out.data(), os, hd, hidden};
  const AttnPlanesMut dq{d_qkv.data(), qs, hd, 3 * hidden};
  const AttnPlanesMut dk{d_qkv.data() + hidden, qs, hd, 3 * hidden};
  const AttnPlanesMut dv{d_qkv.data() + 2 * hidden, qs, hd, 3 * hidden};
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  return 1e3 * time_median([&] {
    sh::tensor::attention_forward(q, k, v, o, row_max.data(), row_sum.data(),
                                  batch, heads, seq, seq, hd, 0, scale);
    sh::tensor::attention_backward(q, k, v, oc, dout, row_max.data(),
                                   row_sum.data(), dq, dk, dv, batch, heads,
                                   seq, hd, scale);
  });
}

DtypeRates probe_dtype(std::size_t numel, std::uint64_t seed) {
  const std::vector<float> src = random_floats(numel, seed);
  std::vector<sh::tensor::bf16> enc(numel);
  std::vector<float> back(numel);
  const double gb = static_cast<double>(numel * sizeof(float)) * 1e-9;
  sh::tensor::Rng rng(seed);
  DtypeRates r;
  r.encode_sr_gbps = gb / time_median([&] {
    sh::tensor::convert_float_to_bf16_stochastic(src.data(), enc.data(), numel,
                                                 rng);
  });
  r.encode_rne_gbps = gb / time_median([&] {
    sh::tensor::convert_float_to_bf16(src.data(), enc.data(), numel);
  });
  r.decode_gbps = gb / time_median([&] {
    sh::tensor::convert_bf16_to_float(enc.data(), back.data(), numel);
  });
  return r;
}

double probe_allreduce_ms(int world, const std::vector<std::size_t>& units) {
  constexpr int kRounds = 24;
  sh::dist::ProcessGroup pg(world);
  std::vector<double> round_s;
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::vector<float>> grads;
      for (const std::size_t n : units) grads.emplace_back(n, 0.0f);
      for (int i = 0; i < kRounds; ++i) {
        pg.barrier(r);
        const double t0 = now();
        for (auto& g : grads) pg.all_reduce_sum(r, g);
        if (r == 0 && i > 0) round_s.push_back(now() - t0);
      }
    });
  }
  for (auto& t : threads) t.join();
  return 1e3 * percentile(std::move(round_s), 0.5);
}

}  // namespace pb
