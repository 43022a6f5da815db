#include "armor/interpreter.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "autograd/grad_mode.h"

namespace armnet::armor {

namespace {

void NormalizeToOne(std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  if (total <= 0) return;
  for (double& x : v) x /= total;
}

}  // namespace

std::vector<double> ArmInterpreter::GlobalFieldImportance() const {
  const core::ArmModule& arm = model_->arm_module();
  const Tensor& values = arm.attention_values().value();  // [K, o, m]
  const int64_t m = values.dim(-1);
  const int64_t neurons = values.numel() / m;
  std::vector<double> importance(static_cast<size_t>(m), 0.0);
  for (int64_t n = 0; n < neurons; ++n) {
    for (int64_t j = 0; j < m; ++j) {
      importance[static_cast<size_t>(j)] += std::abs(values[n * m + j]);
    }
  }
  NormalizeToOne(importance);
  return importance;
}

std::vector<double> ArmInterpreter::GlobalFieldImportance(
    const data::Dataset& dataset, int64_t sample_limit,
    int64_t batch_size) const {
  ARMNET_CHECK_GT(batch_size, 0);
  nn::TrainingModeGuard eval_mode(*model_, /*training=*/false);
  NoGradGuard no_grad;
  Rng rng(0);

  const int m = dataset.num_fields();
  std::vector<double> importance(static_cast<size_t>(m), 0.0);
  const int64_t limit = std::min<int64_t>(dataset.size(), sample_limit);
  std::vector<int64_t> rows;
  for (int64_t start = 0; start < limit; start += batch_size) {
    rows.clear();
    for (int64_t r = start; r < std::min(limit, start + batch_size); ++r) {
      rows.push_back(r);
    }
    data::Batch batch;
    dataset.Gather(rows, &batch);
    core::ArmModule::Output trace;
    (void)model_->ForwardWithTrace(batch, rng, &trace);
    const Tensor& weights = trace.interaction_weights.value();
    const int64_t groups = weights.numel() / m;
    for (int64_t g = 0; g < groups; ++g) {
      for (int64_t j = 0; j < m; ++j) {
        importance[static_cast<size_t>(j)] += std::abs(weights[g * m + j]);
      }
    }
  }
  NormalizeToOne(importance);
  return importance;
}

ArmInterpreter::LocalAttribution ArmInterpreter::Explain(
    const data::Dataset& dataset, int64_t row, int top_neurons) const {
  nn::TrainingModeGuard eval_mode(*model_, /*training=*/false);
  NoGradGuard no_grad;
  data::Batch batch;
  dataset.Gather({row}, &batch);
  Rng rng(0);
  core::ArmModule::Output trace;
  (void)model_->ForwardWithTrace(batch, rng, &trace);

  // Interaction weights for the single instance: [1, K, o, m].
  const Tensor& weights = trace.interaction_weights.value();
  const int64_t m = weights.dim(-1);
  const int64_t neurons = weights.numel() / m;

  LocalAttribution attribution;
  attribution.field_importance.assign(static_cast<size_t>(m), 0.0);
  std::vector<double> neuron_mass(static_cast<size_t>(neurons), 0.0);
  for (int64_t n = 0; n < neurons; ++n) {
    for (int64_t j = 0; j < m; ++j) {
      const double w = std::abs(weights[n * m + j]);
      attribution.field_importance[static_cast<size_t>(j)] += w;
      neuron_mass[static_cast<size_t>(n)] += w;
    }
  }
  NormalizeToOne(attribution.field_importance);

  // Pick the neurons contributing the most attribution mass.
  std::vector<int64_t> order(static_cast<size_t>(neurons));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return neuron_mass[static_cast<size_t>(a)] >
           neuron_mass[static_cast<size_t>(b)];
  });
  const int take = std::min<int>(top_neurons, static_cast<int>(neurons));
  for (int t = 0; t < take; ++t) {
    const int64_t n = order[static_cast<size_t>(t)];
    std::vector<double> per_field(static_cast<size_t>(m));
    for (int64_t j = 0; j < m; ++j) {
      per_field[static_cast<size_t>(j)] = std::abs(weights[n * m + j]);
    }
    attribution.per_neuron.push_back(std::move(per_field));
    attribution.neuron_indices.push_back(n);
  }
  return attribution;
}

}  // namespace armnet::armor
