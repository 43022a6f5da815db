#include "armor/interaction_miner.h"

#include <algorithm>
#include <unordered_map>

#include "autograd/grad_mode.h"
#include "data/batcher.h"

namespace armnet::armor {

std::vector<MinedInteraction> MineInteractions(core::ArmNet& model,
                                               const data::Dataset& dataset,
                                               const MinerConfig& config) {
  nn::TrainingModeGuard eval_mode(model, /*training=*/false);
  NoGradGuard no_grad;
  Rng rng(0);

  // Key: fields joined by ','. Value: occurrence count over all
  // (instance, neuron) pairs.
  std::unordered_map<std::string, int64_t> counts;

  data::Batcher batcher(dataset, config.batch_size, /*shuffle=*/false,
                        Rng(0));
  data::Batch batch;
  int64_t instances = 0;
  std::vector<int> support;
  while (batcher.Next(&batch)) {
    core::ArmModule::Output trace;
    (void)model.ForwardWithTrace(batch, rng, &trace);
    const Tensor& gates = trace.gates.value();  // [B, K, o, m]
    const int64_t m = gates.dim(-1);
    const int64_t neurons = gates.numel() / (batch.batch_size * m);
    for (int64_t i = 0; i < batch.batch_size; ++i) {
      for (int64_t n = 0; n < neurons; ++n) {
        const float* row = gates.data() + (i * neurons + n) * m;
        support.clear();
        for (int64_t j = 0; j < m; ++j) {
          if (row[j] > config.gate_threshold) {
            support.push_back(static_cast<int>(j));
          }
        }
        if (support.empty() ||
            static_cast<int>(support.size()) > config.max_order) {
          continue;
        }
        std::string key;
        for (size_t s = 0; s < support.size(); ++s) {
          if (s > 0) key += ',';
          key += std::to_string(support[s]);
        }
        ++counts[key];
      }
    }
    instances += batch.batch_size;
  }

  std::vector<MinedInteraction> mined;
  mined.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    MinedInteraction interaction;
    size_t start = 0;
    while (start <= key.size()) {
      const size_t comma = key.find(',', start);
      const size_t end = comma == std::string::npos ? key.size() : comma;
      interaction.fields.push_back(
          std::stoi(key.substr(start, end - start)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    interaction.frequency =
        instances > 0 ? static_cast<double>(count) / instances : 0;
    mined.push_back(std::move(interaction));
  }
  std::sort(mined.begin(), mined.end(),
            [](const MinedInteraction& a, const MinedInteraction& b) {
              return a.frequency > b.frequency;
            });
  if (static_cast<int>(mined.size()) > config.top_k) {
    mined.resize(static_cast<size_t>(config.top_k));
  }
  return mined;
}

std::string FormatInteraction(const MinedInteraction& interaction,
                              const data::Schema& schema) {
  std::string out = "(";
  for (size_t i = 0; i < interaction.fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.field(interaction.fields[i]).name;
  }
  return out + ")";
}

}  // namespace armnet::armor
