// Tests for the execution-plan subsystem (src/plan/): trace -> fuse -> pack
// -> replay. The load-bearing property is the parity suite — for EVERY model
// the factory can build, at batch sizes 1 / 7 / 64, the compiled plan must
// produce logits BIT-IDENTICAL to the interpreted eval forward (the *Out
// kernels the VM dispatches to are the same core loops the autograd ops
// wrap) — plus the steady-state guarantee that replay allocates no tensor.

#include "plan/compiled_predictor.h"

#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "data/synthetic.h"
#include "models/factory.h"
#include "plan/planner.h"
#include "plan/tracer.h"

namespace armnet::plan {
namespace {

data::SyntheticDataset TinyData(int64_t tuples = 128) {
  data::SyntheticSpec spec;
  spec.name = "plan-tiny";
  spec.fields = {{"a", data::FieldType::kCategorical, 8},
                 {"b", data::FieldType::kCategorical, 6},
                 {"c", data::FieldType::kNumerical, 1},
                 {"d", data::FieldType::kCategorical, 5}};
  spec.num_tuples = tuples;
  spec.interactions = {{{0, 1}, 2.0f}, {{1, 3}, 1.5f}};
  spec.noise_stddev = 0.2f;
  spec.seed = 17;
  return data::GenerateSynthetic(spec);
}

data::Batch BatchOf(const data::Dataset& dataset, int64_t size,
                    int64_t offset = 0) {
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < size; ++i) {
    rows.push_back((offset + i) % dataset.size());
  }
  data::Batch batch;
  dataset.Gather(rows, &batch);
  return batch;
}

std::unique_ptr<models::TabularModel> BuildEvalModel(
    const std::string& name, const data::Schema& schema) {
  Rng rng(7);
  models::FactoryConfig config;
  config.arm.num_heads = 2;
  config.arm.neurons_per_head = 4;
  config.dropout = 0.3f;  // must be inert: plans are eval-only
  auto model = models::CreateModel(name, schema, config, rng);
  model->SetTraining(false);
  return model;
}

std::vector<float> InterpretedLogits(models::TabularModel& model,
                                     const data::Batch& batch) {
  NoGradGuard no_grad;
  Rng rng(1);
  Variable logits = model.Forward(batch, rng);
  std::vector<float> out(static_cast<size_t>(batch.batch_size));
  std::memcpy(out.data(), logits.value().data(), out.size() * sizeof(float));
  return out;
}

class PlanParityTest : public ::testing::TestWithParam<std::string> {};

// The acceptance bar: compiled == interpreted, bitwise, for every factory
// model at every plan batch size — and replay allocates zero tensors once
// the plan and its context exist.
TEST_P(PlanParityTest, CompiledMatchesInterpretedBitwise) {
  data::SyntheticDataset synthetic = TinyData();
  auto model = BuildEvalModel(GetParam(), synthetic.dataset.schema());
  CompiledPredictor predictor(model.get());

  for (int64_t batch_size : {int64_t{1}, int64_t{7}, int64_t{64}}) {
    data::Batch batch = BatchOf(synthetic.dataset, batch_size);
    const std::vector<float> reference = InterpretedLogits(*model, batch);

    std::vector<float> compiled;
    ASSERT_TRUE(predictor.TryRun(batch, &compiled))
        << GetParam() << " did not compile at batch " << batch_size;
    ASSERT_EQ(compiled.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      // Bit equality, not tolerance: the VM runs the same kernel loops.
      EXPECT_EQ(std::memcmp(&compiled[i], &reference[i], sizeof(float)), 0)
          << GetParam() << " batch " << batch_size << " logit " << i << ": "
          << compiled[i] << " vs " << reference[i];
    }

    // Different rows through the SAME cached plan (ids and values rebound
    // at Run, weights shared in place).
    data::Batch other = BatchOf(synthetic.dataset, batch_size, /*offset=*/31);
    const std::vector<float> other_reference =
        InterpretedLogits(*model, other);
    ASSERT_TRUE(predictor.TryRun(other, &compiled));
    for (size_t i = 0; i < other_reference.size(); ++i) {
      EXPECT_EQ(
          std::memcmp(&compiled[i], &other_reference[i], sizeof(float)), 0)
          << GetParam() << " re-bound batch " << batch_size << " logit " << i;
    }

    // Steady state: the plan is cached and a context sits in the freelist,
    // so a replay allocates no tensor storage on this thread.
    const int64_t allocations_before = Tensor::StorageAllocations();
    ASSERT_TRUE(predictor.TryRun(batch, &compiled));
    EXPECT_EQ(Tensor::StorageAllocations() - allocations_before, 0)
        << GetParam() << " allocated at steady state, batch " << batch_size;
  }

  const CompiledPredictor::Stats stats = predictor.stats();
  EXPECT_EQ(stats.plans, 3);
  EXPECT_EQ(stats.compiles, 3);
  EXPECT_EQ(stats.compile_failures, 0);
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_EQ(stats.executions, 9);
  EXPECT_GT(stats.instructions, 0);
  EXPECT_GT(stats.arena_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(AllFactoryModels, PlanParityTest,
                         ::testing::ValuesIn(models::AllModelNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ARM-Net's hot chain must actually fuse: bilinear attention -> temperature
// scale, entmax -> value weighting, exponent-neuron MatMul -> Exp, MLP
// MatMul -> bias -> ReLU all fold into epilogues.
TEST(PlanFusionTest, ArmNetHotChainFuses) {
  data::SyntheticDataset synthetic = TinyData();
  auto model = BuildEvalModel("ARM-Net", synthetic.dataset.schema());
  data::Batch batch = BatchOf(synthetic.dataset, 16);

  StatusOr<Program> traced = Trace(*model, batch);
  ASSERT_TRUE(traced.ok()) << traced.status().message();
  Program prog = std::move(traced).value();
  const size_t unfused = prog.instrs.size();
  ASSERT_TRUE(Finalize(prog).ok());

  EXPECT_GE(prog.fused_ops, 4) << "hot-chain epilogues did not fold";
  EXPECT_EQ(prog.instrs.size() + static_cast<size_t>(prog.fused_ops),
            unfused);
  EXPECT_GT(prog.arena_floats, 0);
  // Liveness packing must beat the sum of all intermediate slots.
  int64_t total_floats = 0;
  for (size_t s = 0; s < prog.slots.size(); ++s) {
    if (prog.slots[s].kind == SlotDef::Kind::kIntermediate ||
        prog.slots[s].kind == SlotDef::Kind::kBatchValues) {
      if (prog.arena_offset[s] >= 0) total_floats += prog.slots[s].shape.numel();
    }
  }
  EXPECT_LT(prog.arena_floats, total_floats);
}

// A model using an op outside the VM's coverage is reported uncompilable
// (typed error, negative-cached) and TryRun refuses so the caller can
// interpret — coverage gaps degrade, never break.
TEST(PlanFallbackTest, UncoveredOpFallsBackToInterpreter) {
  class SigmoidModel : public models::TabularModel {
   public:
    explicit SigmoidModel(int64_t num_features, Rng& rng)
        : linear_(num_features, rng) {
      RegisterModule(&linear_);
    }
    Variable Forward(const data::Batch& batch, Rng&) override {
      return ag::Sigmoid(linear_.Forward(batch));
    }
    std::string name() const override { return "sigmoid-probe"; }

   private:
    models::FeaturesLinear linear_;
  };

  data::SyntheticDataset synthetic = TinyData();
  Rng rng(3);
  SigmoidModel model(synthetic.dataset.schema().num_features(), rng);
  model.SetTraining(false);

  data::Batch batch = BatchOf(synthetic.dataset, 8);
  StatusOr<Program> traced = Trace(model, batch);
  ASSERT_FALSE(traced.ok());
  EXPECT_NE(traced.status().message().find("not covered"), std::string::npos)
      << traced.status().message();

  CompiledPredictor predictor(&model);
  std::vector<float> logits;
  EXPECT_FALSE(predictor.TryRun(batch, &logits));
  EXPECT_FALSE(predictor.TryRun(batch, &logits));  // negative-cached
  const CompiledPredictor::Stats stats = predictor.stats();
  EXPECT_EQ(stats.plans, 0);
  EXPECT_EQ(stats.compile_failures, 1);  // traced once, not per request
  EXPECT_EQ(stats.fallbacks, 2);
}

// Invalidate drops every plan (weights changed); the next run recompiles
// against the new weights and parity holds again.
TEST(PlanInvalidateTest, RecompilesAfterWeightChange) {
  data::SyntheticDataset synthetic = TinyData();
  auto model = BuildEvalModel("ARM-Net", synthetic.dataset.schema());
  CompiledPredictor predictor(model.get());

  data::Batch batch = BatchOf(synthetic.dataset, 8);
  std::vector<float> logits;
  ASSERT_TRUE(predictor.TryRun(batch, &logits));
  EXPECT_EQ(predictor.CachedBatchSizes(), std::vector<int64_t>{8});

  // Perturb one parameter in place; the cached plan must not be reused.
  std::vector<Variable> params = model->Parameters();
  ASSERT_FALSE(params.empty());
  Tensor weights = params[0].value();  // shares storage
  weights.data()[0] += 0.5f;
  predictor.Invalidate();
  EXPECT_TRUE(predictor.CachedBatchSizes().empty());

  ASSERT_TRUE(predictor.TryRun(batch, &logits));
  const std::vector<float> reference = InterpretedLogits(*model, batch);
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(std::memcmp(&logits[i], &reference[i], sizeof(float)), 0)
        << "post-reload parity broke at logit " << i;
  }
  EXPECT_EQ(predictor.stats().invalidations, 1);
}

// Warm compiles a plan from a synthetic probe without serving traffic —
// the serving layer uses this to stage plans before an RCU publish.
TEST(PlanWarmTest, WarmPrecompilesForBatchSize) {
  data::SyntheticDataset synthetic = TinyData();
  auto model = BuildEvalModel("DNN", synthetic.dataset.schema());
  CompiledPredictor predictor(model.get());

  Status warmed = predictor.Warm(32, synthetic.dataset.num_fields());
  ASSERT_TRUE(warmed.ok()) << warmed.message();
  EXPECT_EQ(predictor.CachedBatchSizes(), std::vector<int64_t>{32});

  data::Batch batch = BatchOf(synthetic.dataset, 32);
  std::vector<float> logits;
  ASSERT_TRUE(predictor.TryRun(batch, &logits));
  const std::vector<float> reference = InterpretedLogits(*model, batch);
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(std::memcmp(&logits[i], &reference[i], sizeof(float)), 0);
  }
  EXPECT_EQ(predictor.stats().compiles, 1);  // Warm's plan was reused
}

}  // namespace
}  // namespace armnet::plan
