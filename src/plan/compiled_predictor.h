#ifndef ARMNET_PLAN_COMPILED_PREDICTOR_H_
#define ARMNET_PLAN_COMPILED_PREDICTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/tabular.h"
#include "data/dataset.h"
#include "plan/program.h"
#include "plan/vm.h"
#include "util/status.h"
#include "util/sync.h"

namespace armnet::plan {

// Compiled-inference frontend over one model: a cache of finalized Programs
// keyed by batch size, each with a freelist of reusable ExecutionContexts.
//
// TryRun is the whole contract: it compiles on first sight of a batch size
// (trace + fuse + pack), executes the cached plan on every later hit, and
// returns false whenever compiled execution is not available — compile
// failed (uncovered op, injected fault) or the model was never compilable.
// The caller falls back to the interpreted forward; a compile failure is
// cached so an uncompilable model pays the trace cost once, not per batch.
//
// Weights are captured by reference, so any mutation of the model
// (ReloadModel, training steps) must Invalidate() before the next TryRun.
// Thread-safe: serve workers share one predictor per model slot; compiles
// are serialized, executions run lock-free on private contexts.
class CompiledPredictor {
 public:
  // Cumulative counters plus live-plan gauges, exported through the
  // run-metrics "plan" section.
  struct Stats {
    int64_t plans = 0;         // live compiled plans (gauge)
    int64_t instructions = 0;  // across live plans (gauge)
    int64_t fused_ops = 0;     // ops folded into epilogues (gauge)
    int64_t arena_bytes = 0;   // per-context arena footprint (gauge)
    int64_t compiles = 0;      // successful compiles
    int64_t compile_failures = 0;
    int64_t executions = 0;    // batches served by the VM
    int64_t fallbacks = 0;     // TryRun refusals -> interpreted path
    int64_t invalidations = 0;
  };

  // `model` must outlive the predictor (non-owning) and stay in eval mode.
  explicit CompiledPredictor(models::TabularModel* model);

  // Serves one batch from the compiled plan; fills `logits` (resized to the
  // batch) and returns true, or returns false for interpreted fallback.
  bool TryRun(const data::Batch& batch, std::vector<float>* logits);

  // Compiles the plan for `batch_size` (ids all 0 — valid for any embedding
  // table — values all 1) without serving anything. Idempotent.
  Status Warm(int64_t batch_size, int num_fields);

  // Drops every cached plan and negative entry (weights changed; plans
  // capture weights and eval-derived tensors by reference). In-flight
  // executions finish safely on their popped contexts.
  void Invalidate();

  // Batch sizes with a live compiled plan, ascending. Used by the serving
  // layer to restage a standby slot's plans before an RCU publish.
  std::vector<int64_t> CachedBatchSizes() const;

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Program> program;  // null: negative (uncompilable)
    std::vector<std::unique_ptr<ExecutionContext>> free_contexts;
  };

  // Returns the plan for this batch size, compiling it (probe = `batch`)
  // on a miss. Null for negative entries.
  std::shared_ptr<const Program> EnsureCompiled(const data::Batch& batch)
      ARMNET_EXCLUDES(mutex_);

  models::TabularModel* const model_;
  mutable Mutex mutex_;
  std::map<int64_t, Entry> cache_ ARMNET_GUARDED_BY(mutex_);
  Stats counters_ ARMNET_GUARDED_BY(mutex_);  // cumulative fields only
};

}  // namespace armnet::plan

#endif  // ARMNET_PLAN_COMPILED_PREDICTOR_H_
