// Microbenchmarks (google-benchmark) for the numeric substrate: kernel
// backends, entmax solvers, embedding lookup, and a full ARM-Net
// forward/backward step. Not a paper experiment — engineering validation of
// the Table 3 backend axis at the kernel level.
//
// Accepts --json=<path> like every other bench binary; it is translated to
// google-benchmark's native --benchmark_out=<path> in JSON format (the
// library's own report schema, not the BenchReport schema v1).

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "autograd/entmax.h"
#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "core/arm_net.h"
#include "data/presets.h"
#include "optim/adam.h"
#include "tensor/kernels.h"
#include "tensor/quantized.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace armnet;

void BM_GemmScalar(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Normal(Shape({n, n}), 0, 1, rng);
  Tensor b = Tensor::Normal(Shape({n, n}), 0, 1, rng);
  Tensor c = Tensor::Zeros(Shape({n, n}));
  for (auto _ : state) {
    kernels::scalar::Gemm(n, n, n, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmScalar)->Arg(64)->Arg(128);

void BM_GemmSimd(benchmark::State& state) {
  if (!SimdAvailable()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Normal(Shape({n, n}), 0, 1, rng);
  Tensor b = Tensor::Normal(Shape({n, n}), 0, 1, rng);
  Tensor c = Tensor::Zeros(Shape({n, n}));
  for (auto _ : state) {
    kernels::simd::Gemm(n, n, n, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmSimd)->Arg(64)->Arg(128);

void BM_VecExpScalar(benchmark::State& state) {
  const int64_t n = 1 << 14;
  Rng rng(2);
  Tensor a = Tensor::Normal(Shape({n}), 0, 1, rng);
  Tensor out = Tensor::Zeros(Shape({n}));
  for (auto _ : state) {
    kernels::scalar::VecExp(a.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VecExpScalar);

void BM_VecExpSimd(benchmark::State& state) {
  if (!SimdAvailable()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const int64_t n = 1 << 14;
  Rng rng(2);
  Tensor a = Tensor::Normal(Shape({n}), 0, 1, rng);
  Tensor out = Tensor::Zeros(Shape({n}));
  for (auto _ : state) {
    kernels::simd::VecExp(a.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VecExpSimd);

void BM_Entmax(benchmark::State& state) {
  const float alpha = static_cast<float>(state.range(0)) / 10.0f;
  const int64_t rows = 4096;
  const int64_t d = state.range(1);
  Rng rng(3);
  Tensor z = Tensor::Normal(Shape({rows, d}), 0, 1, rng);
  for (auto _ : state) {
    Tensor p = ag::EntmaxLastDimValue(z, alpha);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(alpha == 1.0f   ? "softmax"
                 : alpha == 2.0f ? "sparsemax-exact"
                 : alpha == 1.5f ? "entmax15-exact"
                                 : "bisection");
}
BENCHMARK(BM_Entmax)
    ->Args({10, 10})
    ->Args({15, 10})
    ->Args({17, 10})
    ->Args({20, 10})
    ->Args({17, 43});

// Forward gather throughput over a large table — the loop whose per-id
// row-range CHECK was hoisted into tmath::CheckRowIds's single pre-scan
// (the copy loop itself now runs unchecked). Regression guard for that
// hoist.
void BM_GatherRows(benchmark::State& state) {
  Rng rng(4);
  const int64_t rows = 100000;
  const int64_t width = state.range(0);
  Tensor table = Tensor::Normal(Shape({rows, width}), 0, 0.01f, rng);
  std::vector<int64_t> ids;
  for (int i = 0; i < 4096; ++i) ids.push_back(rng.UniformInt(rows));
  Tensor out = Tensor::Zeros(Shape({static_cast<int64_t>(ids.size()), width}));
  for (auto _ : state) {
    tmath::GatherRowsOut(table, ids, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_GatherRows)->Arg(10)->Arg(64);

// Dequantize-on-gather from a QuantizedTable (DESIGN.md §15): the serving
// no-grad lookup route, per storage kind.
void BM_QuantizedGather(benchmark::State& state) {
  Rng rng(4);
  const int64_t rows = 100000;
  const int64_t width = 10;
  const auto kind = static_cast<QuantKind>(state.range(0));
  Tensor table = Tensor::Normal(Shape({rows, width}), 0, 0.01f, rng);
  std::shared_ptr<QuantizedTable> store =
      QuantizedTable::Quantize(table, kind);
  std::vector<int64_t> ids;
  for (int i = 0; i < 4096; ++i) ids.push_back(rng.UniformInt(rows));
  Tensor out = Tensor::Zeros(Shape({static_cast<int64_t>(ids.size()), width}));
  for (auto _ : state) {
    store->GatherRowsOut(ids, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
  state.SetLabel(QuantKindName(kind));
}
BENCHMARK(BM_QuantizedGather)->Arg(0)->Arg(1)->Arg(2);

void BM_EmbeddingLookupBackward(benchmark::State& state) {
  Rng rng(4);
  const int64_t rows = 100000;
  Variable table(Tensor::Normal(Shape({rows, 10}), 0, 0.01f, rng), true);
  std::vector<int64_t> ids;
  for (int i = 0; i < 4096; ++i) ids.push_back(rng.UniformInt(rows));
  for (auto _ : state) {
    Variable e = ag::EmbeddingLookup(table, ids);
    Variable loss = ag::SumAll(ag::Square(e));
    table.ZeroGrad();
    loss.Backward();
    benchmark::DoNotOptimize(table.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_EmbeddingLookupBackward);

void BM_ArmNetTrainStep(benchmark::State& state) {
  const auto backend =
      state.range(0) == 0 ? Backend::kScalar : Backend::kSimd;
  if (backend == Backend::kSimd && !SimdAvailable()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  SetBackend(backend);
  data::SyntheticSpec spec = data::FrappePreset();
  spec.num_tuples = 2048;
  data::SyntheticDataset synthetic = data::GenerateSynthetic(spec);
  Rng rng(5);
  core::ArmNetConfig config;
  config.num_heads = 4;
  config.neurons_per_head = 32;
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), config, rng);
  optim::Adam optimizer(model.Parameters(), 1e-3f);
  data::Batch batch;
  std::vector<int64_t> all_rows;
  for (int64_t i = 0; i < 512; ++i) all_rows.push_back(i);
  synthetic.dataset.Gather(all_rows, &batch);
  Rng dropout_rng(6);
  for (auto _ : state) {
    Variable loss = ag::BceWithLogits(model.Forward(batch, dropout_rng),
                                      batch.LabelsTensor());
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    benchmark::DoNotOptimize(loss.value().item());
  }
  state.SetItemsProcessed(state.iterations() * batch.batch_size);
  state.SetLabel(BackendName(backend));
  if (SimdAvailable()) SetBackend(Backend::kSimd);
}
BENCHMARK(BM_ArmNetTrainStep)->Arg(0)->Arg(1);

// Tensor allocation cost in steady state (same sizes every round, as in
// batched inference): heap malloc/free plus the zero-fill, the baseline any
// future storage-recycling proposal has to beat (DESIGN.md §9).
void BM_TensorAlloc(benchmark::State& state) {
  const int64_t n = 4096 * 10;
  for (auto _ : state) {
    Tensor a{Shape({n})};
    Tensor b{Shape({n / 4})};
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetLabel("heap");
}
BENCHMARK(BM_TensorAlloc);

// Full ARM-Net eval-mode forward pass: the legacy taped configuration vs
// the tape-free (NoGradGuard) execution mode every serving entry point now
// uses. The delta is Table 3's inference speedup at micro scale.
void BM_ArmNetInference(benchmark::State& state) {
  const bool tape_free = state.range(0) != 0;
  data::SyntheticSpec spec = data::FrappePreset();
  spec.num_tuples = 2048;
  data::SyntheticDataset synthetic = data::GenerateSynthetic(spec);
  Rng rng(5);
  core::ArmNetConfig config;
  config.num_heads = 4;
  config.neurons_per_head = 32;
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), config, rng);
  model.SetTraining(false);
  data::Batch batch;
  std::vector<int64_t> all_rows;
  for (int64_t i = 0; i < 512; ++i) all_rows.push_back(i);
  synthetic.dataset.Gather(all_rows, &batch);
  Rng eval_rng(6);
  std::unique_ptr<NoGradGuard> no_grad;
  if (tape_free) no_grad = std::make_unique<NoGradGuard>();
  autograd::ResetTapeStats();
  for (auto _ : state) {
    Variable out = model.Forward(batch, eval_rng);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.batch_size);
  state.SetLabel(tape_free ? "nograd" : "taped");
  state.counters["tape_nodes_per_iter"] =
      state.iterations() > 0
          ? static_cast<double>(autograd::GetTapeStats().nodes_recorded) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_ArmNetInference)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag;
  std::string format_flag;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kJson = "--json=";
    if (arg.substr(0, kJson.size()) == kJson) {
      out_flag = "--benchmark_out=" + std::string(arg.substr(kJson.size()));
      format_flag = "--benchmark_out_format=json";
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
