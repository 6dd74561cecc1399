// Micro-benchmarks (google-benchmark) of the performance-critical runtime
// components: tensor kernels, buffer-pool recycling, transfer engine,
// in-process collectives and the analytical window solver.
#include <benchmark/benchmark.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/window_model.hpp"
#include "dist/process_group.hpp"
#include "hw/transfer.hpp"
#include "mem/device_arena.hpp"
#include "mem/pool_policies.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace {

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  sh::tensor::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  rng.fill_uniform(a, 1.0f);
  rng.fill_uniform(b, 1.0f);
  for (auto _ : state) {
    sh::tensor::matmul(a.data(), b.data(), c.data(), n, n, n, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_LayerNorm(benchmark::State& state) {
  const std::int64_t rows = 64, cols = state.range(0);
  sh::tensor::Rng rng(2);
  std::vector<float> x(static_cast<std::size_t>(rows * cols));
  std::vector<float> y(x.size());
  std::vector<float> gamma(static_cast<std::size_t>(cols), 1.0f);
  std::vector<float> beta(static_cast<std::size_t>(cols), 0.0f);
  std::vector<sh::tensor::LayerNormStats> stats(rows);
  rng.fill_uniform(x, 1.0f);
  for (auto _ : state) {
    sh::tensor::layernorm_forward(x.data(), gamma.data(), beta.data(),
                                  y.data(), stats.data(), rows, cols);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNorm)->Arg(256)->Arg(1024);

void BM_Softmax(benchmark::State& state) {
  const std::int64_t rows = 128, cols = state.range(0);
  sh::tensor::Rng rng(3);
  std::vector<float> x(static_cast<std::size_t>(rows * cols));
  std::vector<float> y(x.size());
  rng.fill_uniform(x, 3.0f);
  for (auto _ : state) {
    sh::tensor::softmax_rows(x.data(), y.data(), rows, cols);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(512);

void BM_BufferPoolRecycle(benchmark::State& state) {
  sh::mem::DeviceArena gpu("gpu", 1 << 24);
  sh::mem::BufferPool pool(gpu, 4096,
                           static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::byte* s = pool.acquire();
    benchmark::DoNotOptimize(s);
    pool.release(s);
  }
  state.counters["peak_bytes"] = static_cast<double>(gpu.peak_bytes());
}
BENCHMARK(BM_BufferPoolRecycle)->Arg(2)->Arg(8);

// Reservation charge/uncharge round-trip on the accounted device arena —
// the hot path serve::KvArena takes per chunk reservation. The peak_bytes
// counter lands in the benchmark JSON (one peak convention across sh::mem).
void BM_DeviceArenaChargeCycle(benchmark::State& state) {
  sh::mem::DeviceArena arena("gpu", std::size_t{1} << 24);
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    bool ok = arena.try_charge(sh::mem::DeviceArena::kKv, bytes);
    benchmark::DoNotOptimize(ok);
    arena.uncharge(sh::mem::DeviceArena::kKv, bytes);
  }
  state.counters["peak_bytes"] = static_cast<double>(arena.peak_bytes());
}
BENCHMARK(BM_DeviceArenaChargeCycle)->Arg(1 << 10)->Arg(1 << 20);

void BM_TransferEngineCopy(benchmark::State& state) {
  sh::hw::TransferEngine eng("h2d");
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> src(n, 1.0f), dst(n, 0.0f);
  for (auto _ : state) {
    eng.run_async([&] {
         std::memcpy(dst.data(), src.data(), n * sizeof(float));
         eng.transfer(n * sizeof(float));
       }).get();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_TransferEngineCopy)->Arg(1 << 12)->Arg(1 << 18);

void BM_AllReduce(benchmark::State& state) {
  const int world = 4;
  const auto n = static_cast<std::size_t>(state.range(0));
  sh::dist::ProcessGroup pg(world);
  std::vector<std::vector<float>> bufs(world, std::vector<float>(n, 1.0f));
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        pg.all_reduce_sum(r, bufs[static_cast<std::size_t>(r)]);
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * world *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AllReduce)->Arg(1 << 10)->Arg(1 << 16);

void BM_WindowSolver(benchmark::State& state) {
  sh::core::WindowModelInput in;
  in.layers.assign(static_cast<std::size_t>(state.range(0)),
                   sh::core::LayerProfile{.t_fp = 1.0, .t_bp = 2.0,
                                          .t_c2g = 2.5, .t_g2c = 1.5,
                                          .s_fp = 1.0, .s_bp = 1.0,
                                          .t_opt_gpu = 0.1, .t_opt_cpu = 0.5});
  in.s_avail = 64.0;
  in.t_async = 1e-5;
  for (auto _ : state) {
    auto d = sh::core::solve_window(in);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_WindowSolver)->Arg(50)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
