#ifndef ARMNET_ARMOR_INTERPRETER_H_
#define ARMNET_ARMOR_INTERPRETER_H_

#include <vector>

#include "core/arm_net.h"

namespace armnet::armor {

// Transparent-box interpretability of a trained ARM-Net (paper Section 3.4
// and the Section 4.4 study).
//
// Global: the attention value vectors v_i encode the pre-recalibration
// interaction weight of each field over the instance population; |v|
// aggregated across heads and neurons is the global feature importance
// (Figure 8). Local: the per-instance interaction weights w_i = z_i ∘ v_i
// attribute a specific prediction to fields, per neuron and aggregated
// (Figures 10-11).
class ArmInterpreter {
 public:
  explicit ArmInterpreter(core::ArmNet* model) : model_(model) {
    ARMNET_CHECK(model != nullptr);
  }

  // Mean |v| per field over all K*o neurons, normalized to sum to 1 — the
  // pre-recalibration importance encoded in the shared value vectors.
  std::vector<double> GlobalFieldImportance() const;

  // Gate-calibrated global importance: mean |w| = |z ∘ v| per field over
  // all neurons, averaged over (up to `sample_limit`) instances of
  // `dataset` and normalized to sum to 1. This is the §3.4 "aggregate the
  // interaction weights over the instance population" reading and is the
  // variant the Figure 8 study uses: after training, the per-instance
  // gates — not the raw value magnitudes — carry the selection signal.
  // `batch_size` must be positive.
  std::vector<double> GlobalFieldImportance(const data::Dataset& dataset,
                                            int64_t sample_limit = 2048,
                                            int64_t batch_size = 512) const;

  struct LocalAttribution {
    // Aggregated |w| per field over all neurons, normalized to sum to 1.
    std::vector<double> field_importance;
    // |w| per field for the `top_neurons` neurons with the largest total
    // attribution mass (the paper's "Neuron1..3" panels).
    std::vector<std::vector<double>> per_neuron;
    // Indices (head * o + neuron) of the selected neurons.
    std::vector<int64_t> neuron_indices;
  };

  // Local feature attribution for the `row`-th tuple of `dataset`.
  LocalAttribution Explain(const data::Dataset& dataset, int64_t row,
                           int top_neurons = 3) const;

 private:
  core::ArmNet* model_;
};

}  // namespace armnet::armor

#endif  // ARMNET_ARMOR_INTERPRETER_H_
