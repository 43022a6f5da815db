// Coverage for the hardened runtime-check layer: bounds-checked Tensor::at()
// accessors, kernel-dispatcher precondition DCHECKs, autograd shape
// contracts, argument checks on batched loops, and the NDEBUG swallow
// semantics of ARMNET_DCHECK (via check_ndebug_tu.cc, which is always
// compiled with NDEBUG).
//
// Death tests exercise checks that are active in this build (the repo's
// Release build keeps DCHECKs on — NDEBUG is never defined); they are
// skipped under ThreadSanitizer, where fork-based death tests hang.

#include <cstdint>

#include "armor/interpreter.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/arm_net.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace armnet {
namespace testonly {
bool NdebugDcheckIsSwallowed(int x);
bool NdebugDcheckDoesNotEvaluate();
}  // namespace testonly

namespace {

// DCHECKs compile to real checks in every preset this repo builds (NDEBUG is
// never defined), so death tests for them are unconditional; under TSan the
// fork machinery is unreliable, so skip there.
#if defined(__SANITIZE_THREAD__)
#define ARMNET_SKIP_DEATH_TESTS() \
  GTEST_SKIP() << "death tests are unreliable under ThreadSanitizer"
#else
#define ARMNET_SKIP_DEATH_TESTS() \
  do {                            \
  } while (false)
#endif

TEST(TensorAtTest, VariadicMatchesInitializerList) {
  Tensor t = Tensor::FromVector(Shape({2, 3}), {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.at(1, 2), 5.0f);
  EXPECT_EQ(t.at(1, 2), (t.at({1, 2})));
  t.at(0, 1) = 42.0f;
  EXPECT_EQ(t.at({0, 1}), 42.0f);
}

TEST(TensorAtTest, NegativeIndicesCountFromEnd) {
  Tensor t = Tensor::FromVector(Shape({2, 3}), {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at(-1, -1), 5.0f);
  EXPECT_EQ(t.at(-2, 0), 0.0f);
}

TEST(TensorAtTest, ScalarAccess) {
  Tensor s = Tensor::Scalar(7.0f);
  EXPECT_EQ(s.at({}), 7.0f);
}

TEST(TensorAtDeathTest, RankMismatchAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor t = Tensor::Zeros(Shape({2, 3}));
  EXPECT_DEATH(t.at(0), "CHECK failed");
  EXPECT_DEATH(t.at(0, 0, 0), "CHECK failed");
}

TEST(TensorAtDeathTest, OutOfRangeIndexAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor t = Tensor::Zeros(Shape({2, 3}));
  EXPECT_DEATH(t.at(2, 0), "CHECK failed");
  EXPECT_DEATH(t.at(0, -4), "CHECK failed");
  EXPECT_DEATH(t[6], "CHECK failed");
}

TEST(TensorAtDeathTest, UndefinedTensorAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor t;
  EXPECT_DEATH(t.at({}), "CHECK failed");
  EXPECT_DEATH(t.data(), "CHECK failed");
}

TEST(KernelPreconditionDeathTest, NegativeSizeAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  float buf[4] = {0, 0, 0, 0};
  EXPECT_DEATH(kernels::VecAdd(buf, buf, buf, -1), "CHECK failed");
  EXPECT_DEATH(kernels::VecSum(buf, -3), "CHECK failed");
  EXPECT_DEATH(kernels::Gemm(-2, 2, 2, buf, buf, 0.0f, buf), "CHECK failed");
}

TEST(KernelPreconditionDeathTest, NullPointerWithNonEmptyRangeAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  float buf[4] = {0, 0, 0, 0};
  EXPECT_DEATH(kernels::VecAdd(nullptr, buf, buf, 4), "CHECK failed");
  EXPECT_DEATH(kernels::VecAxpy(1.0f, buf, nullptr, 4), "CHECK failed");
  EXPECT_DEATH(kernels::VecDot(buf, nullptr, 4), "CHECK failed");
  EXPECT_DEATH(kernels::Gemm(2, 2, 2, nullptr, buf, 0.0f, buf),
               "CHECK failed");
}

TEST(KernelPreconditionTest, EmptyRangeToleratesNullPointers) {
  // Zero-element tensors have no storage; dispatchers must accept null
  // pointers for n == 0 instead of DCHECK-failing.
  kernels::VecAdd(nullptr, nullptr, nullptr, 0);
  kernels::VecScale(nullptr, 2.0f, nullptr, 0);
  EXPECT_EQ(kernels::VecSum(nullptr, 0), 0.0f);
  EXPECT_EQ(kernels::VecDot(nullptr, nullptr, 0), 0.0f);
}

TEST(AutogradContractDeathTest, BackwardSeedShapeMismatchAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Variable v(Tensor::Zeros(Shape({2, 2})), /*requires_grad=*/true);
  EXPECT_DEATH(v.Backward(Tensor::Zeros(Shape({3}))), "CHECK failed");
}

TEST(AutogradContractDeathTest, AccumulateGradShapeMismatchAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Variable v(Tensor::Zeros(Shape({2, 2})), /*requires_grad=*/true);
  EXPECT_DEATH(v.AccumulateGrad(Tensor::Zeros(Shape({4}))), "CHECK failed");
}

TEST(IndexedOpDeathTest, GatherRowsOutOfRangeIdAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor table = Tensor::Zeros(Shape({4, 2}));
  // The check names the offending id and the table bound — the message a
  // serving stack traces a bad embedding lookup with.
  EXPECT_DEATH(tmath::GatherRows(table, {0, 4}), "out of range");
  EXPECT_DEATH(tmath::GatherRows(table, {-1}), "out of range");
}

TEST(IndexedOpDeathTest, ScatterAddRowsOutOfRangeIdAborts) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor dest = Tensor::Zeros(Shape({4, 2}));
  Tensor src = Tensor::Zeros(Shape({1, 2}));
  EXPECT_DEATH(tmath::ScatterAddRows(dest, {4}, src), "out of range");
  EXPECT_DEATH(tmath::ScatterAddRows(dest, {-2}, src), "out of range");
}

// A non-positive batch size would step the sampling loop by <= 0 and never
// terminate; it must abort instead, as data::Batcher does.
TEST(BatchedLoopDeathTest, GlobalFieldImportanceRejectsNonPositiveBatch) {
  ARMNET_SKIP_DEATH_TESTS();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  data::SyntheticSpec spec;
  spec.name = "hardening";
  spec.fields = {{"f0", data::FieldType::kCategorical, 4},
                 {"f1", data::FieldType::kCategorical, 3}};
  spec.num_tuples = 16;
  const data::SyntheticDataset synthetic = data::GenerateSynthetic(spec);
  core::ArmNetConfig config;
  config.embed_dim = 2;
  config.num_heads = 1;
  config.neurons_per_head = 2;
  config.hidden = {4};
  Rng rng(5);
  core::ArmNet model(synthetic.dataset.schema().num_features(),
                     synthetic.dataset.num_fields(), config, rng);
  const armor::ArmInterpreter interpreter(&model);
  EXPECT_DEATH(interpreter.GlobalFieldImportance(synthetic.dataset, 8, 0),
               "CHECK failed");
  EXPECT_DEATH(interpreter.GlobalFieldImportance(synthetic.dataset, 8, -3),
               "CHECK failed");
}

TEST(NdebugDcheckTest, SwallowsFailingConditionsWithoutAborting) {
  EXPECT_TRUE(testonly::NdebugDcheckIsSwallowed(5));
}

TEST(NdebugDcheckTest, ConditionIsNeverEvaluated) {
  EXPECT_TRUE(testonly::NdebugDcheckDoesNotEvaluate());
}

}  // namespace
}  // namespace armnet
