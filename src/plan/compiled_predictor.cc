#include "plan/compiled_predictor.h"

#include <string>
#include <utility>

#include "plan/planner.h"
#include "plan/tracer.h"
#include "util/fault_injection.h"
#include "util/profiler.h"

namespace armnet::plan {

CompiledPredictor::CompiledPredictor(models::TabularModel* model)
    : model_(model) {
  ARMNET_CHECK(model_ != nullptr);
}

std::shared_ptr<const Program> CompiledPredictor::EnsureCompiled(
    const data::Batch& batch) {
  MutexLock lock(mutex_);
  auto it = cache_.find(batch.batch_size);
  if (it != cache_.end()) return it->second.program;

  Entry entry;
  if (fault::ShouldFail(fault::kSiteServePlanCompile,
                        fault::Kind::kFailOpen)) {
    ++counters_.compile_failures;
    cache_.emplace(batch.batch_size, std::move(entry));  // negative
    return nullptr;
  }

  // Compiles under the cache mutex: rare (once per batch size per weight
  // version), and holding it deduplicates a compile stampede.
  StatusOr<Program> traced = Trace(*model_, batch);
  if (traced.ok()) {
    Program prog = std::move(traced).value();
    Status finalized = Finalize(prog);
    if (finalized.ok()) {
      entry.program = std::make_shared<const Program>(std::move(prog));
    }
  }
  if (entry.program == nullptr) {
    ++counters_.compile_failures;
  } else {
    ++counters_.compiles;
  }
  auto program = entry.program;
  cache_.emplace(batch.batch_size, std::move(entry));
  return program;
}

bool CompiledPredictor::TryRun(const data::Batch& batch,
                               std::vector<float>* logits) {
  std::shared_ptr<const Program> program = EnsureCompiled(batch);
  if (program == nullptr) {
    MutexLock lock(mutex_);
    ++counters_.fallbacks;
    return false;
  }

  std::unique_ptr<ExecutionContext> ctx;
  {
    MutexLock lock(mutex_);
    auto it = cache_.find(batch.batch_size);
    if (it != cache_.end() && it->second.program == program &&
        !it->second.free_contexts.empty()) {
      ctx = std::move(it->second.free_contexts.back());
      it->second.free_contexts.pop_back();
    }
  }
  // First execution (or a concurrency peak) binds a fresh context; steady
  // state always pops one from the freelist and allocates nothing.
  if (ctx == nullptr) {
    ctx = std::make_unique<ExecutionContext>(CreateContext(*program));
  }

  logits->resize(static_cast<size_t>(batch.batch_size));
  Execute(*program, *ctx, batch, logits->data());

  MutexLock lock(mutex_);
  ++counters_.executions;
  auto it = cache_.find(batch.batch_size);
  if (it != cache_.end() && it->second.program == program) {
    it->second.free_contexts.push_back(std::move(ctx));
  }  // else: an Invalidate raced this run; drop the stale context
  return true;
}

Status CompiledPredictor::Warm(int64_t batch_size, int num_fields) {
  ARMNET_PROFILE_SCOPE("plan/warm");
  if (batch_size <= 0 || num_fields <= 0) {
    return Status::Error("plan: Warm needs positive batch size and fields");
  }
  data::Batch probe;
  probe.batch_size = batch_size;
  probe.num_fields = num_fields;
  // Feature id 0 is in range for any embedding table; value 1 is the
  // categorical no-op scale.
  probe.ids.assign(static_cast<size_t>(batch_size * num_fields), 0);
  probe.values.assign(static_cast<size_t>(batch_size * num_fields), 1.0f);
  if (EnsureCompiled(probe) == nullptr) {
    return Status::Error("plan: compile failed for batch size " +
                         std::to_string(batch_size) +
                         " (serving falls back to the interpreter)");
  }
  return Status::Ok();
}

void CompiledPredictor::Invalidate() {
  MutexLock lock(mutex_);
  cache_.clear();
  ++counters_.invalidations;
}

std::vector<int64_t> CompiledPredictor::CachedBatchSizes() const {
  MutexLock lock(mutex_);
  std::vector<int64_t> sizes;
  for (const auto& [batch_size, entry] : cache_) {
    if (entry.program != nullptr) sizes.push_back(batch_size);
  }
  return sizes;
}

CompiledPredictor::Stats CompiledPredictor::stats() const {
  MutexLock lock(mutex_);
  Stats s = counters_;
  for (const auto& [batch_size, entry] : cache_) {
    if (entry.program == nullptr) continue;
    ++s.plans;
    s.instructions += static_cast<int64_t>(entry.program->instrs.size());
    s.fused_ops += entry.program->fused_ops;
    s.arena_bytes +=
        entry.program->arena_floats * static_cast<int64_t>(sizeof(float));
  }
  return s;
}

}  // namespace armnet::plan
