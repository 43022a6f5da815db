#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autograd/grad_mode.h"
#include "nn/embedding.h"
#include "nn/embedding_store.h"
#include "nn/serialize.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace armnet::serve {

namespace {

float Sigmoid(float logit) { return 1.0f / (1.0f + std::exp(-logit)); }

// The train-prior as a logit, clamped away from the infinities an all-
// positive or all-negative training split would produce.
float PriorLogit(double positive_rate) {
  const double p = std::min(std::max(positive_rate, 1e-6), 1.0 - 1e-6);
  return static_cast<float>(std::log(p / (1.0 - p)));
}

AdaptiveBatchPolicy::Options PolicyOptions(const ServeOptions& options) {
  AdaptiveBatchPolicy::Options policy;
  policy.latency_budget_seconds = options.latency_budget_seconds;
  policy.max_wait_seconds = options.batch_wait_seconds;
  return policy;
}

int64_t ReadyLowWatermark(const ServeOptions& options) {
  return options.ready_low_watermark >= 0 ? options.ready_low_watermark
                                          : options.queue_capacity / 2;
}

// Strips any quantized embedding store from `model`'s module tree. Caller
// holds a write on the model's slot.
void DetachEmbeddingStores(models::TabularModel& model) {
  for (nn::Module* m : model.SelfAndDescendants()) {
    auto* embedding = dynamic_cast<nn::Embedding*>(m);
    if (embedding != nullptr && embedding->store() != nullptr) {
      embedding->DetachStore();
    }
  }
}

// Every ServeCounters field with its run-metrics name, in snapshot order:
// MergeFrom and CounterSnapshot both walk this one table.
struct CounterField {
  const char* name;
  int64_t ServeCounters::*field;
};

constexpr CounterField kCounterFields[] = {
    {"serve/submitted", &ServeCounters::submitted},
    {"serve/rejected_invalid", &ServeCounters::rejected_invalid},
    {"serve/rejected_overload", &ServeCounters::rejected_overload},
    {"serve/shed", &ServeCounters::shed},
    {"serve/expired", &ServeCounters::expired},
    {"serve/completed_ok", &ServeCounters::completed_ok},
    {"serve/degraded_fallback", &ServeCounters::degraded_fallback},
    {"serve/degraded_prior", &ServeCounters::degraded_prior},
    {"serve/failed", &ServeCounters::failed},
    {"serve/oov_fields", &ServeCounters::oov_fields},
    {"serve/clamped_fields", &ServeCounters::clamped_fields},
    {"serve/batches", &ServeCounters::batches},
    {"serve/reloads_ok", &ServeCounters::reloads_ok},
    {"serve/reloads_rejected", &ServeCounters::reloads_rejected},
    {"serve/drift_alerts", &ServeCounters::drift_alerts},
    {"serve/shadow_loads", &ServeCounters::shadow_loads},
    {"serve/shadow_loads_rejected", &ServeCounters::shadow_loads_rejected},
    {"serve/shadow_mirrored_batches", &ServeCounters::shadow_mirrored_batches},
    {"serve/shadow_mirrored_rows", &ServeCounters::shadow_mirrored_rows},
    {"serve/shadow_failures", &ServeCounters::shadow_failures},
    {"serve/shadow_promotions_ok", &ServeCounters::shadow_promotions_ok},
    {"serve/shadow_promotions_refused",
     &ServeCounters::shadow_promotions_refused},
    {"serve/shadow_dismissed", &ServeCounters::shadow_dismissed},
};

}  // namespace

const char* ServeCodeName(ServeCode code) {
  switch (code) {
    case ServeCode::kOk:
      return "OK";
    case ServeCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ServeCode::kOverloaded:
      return "OVERLOADED";
    case ServeCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ServeCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

void ServeCounters::MergeFrom(const ServeCounters& other) {
  for (const CounterField& f : kCounterFields) this->*f.field += other.*f.field;
}

// --- PendingPrediction -------------------------------------------------------

const PredictResult& PendingPrediction::Wait() {
  MutexLock lock(mutex_);
  cv_.Wait(mutex_, [this]() ARMNET_REQUIRES(mutex_) { return done_; });
  return result_;
}

bool PendingPrediction::done() {
  MutexLock guard(mutex_);
  return done_;
}

void PendingPrediction::Complete(PredictResult result) {
  ReleasableMutexLock guard(mutex_);
  if (done_) return;  // first terminal outcome wins
  result.oov_fields = oov_fields_;
  result.clamped_fields = clamped_fields_;
  result_ = std::move(result);
  done_ = true;
  // Notify after release so the woken waiter never blocks straight back on
  // the mutex this thread still holds.
  guard.Release();
  cv_.NotifyAll();
}

// --- PredictionService -------------------------------------------------------

PredictionService::PredictionService(models::TabularModel* model,
                                     data::FeatureSpace space,
                                     ServeOptions options, Clock* clock,
                                     models::TabularModel* fallback,
                                     models::TabularModel* standby,
                                     models::TabularModel* shadow)
    : space_(std::move(space)),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &own_clock_),
      breaker_(options_.breaker, clock != nullptr ? clock : &own_clock_),
      policy_(PolicyOptions(options_)) {
  ARMNET_CHECK(model != nullptr) << "PredictionService needs a model";
  ARMNET_CHECK(standby != model) << "standby must be a distinct model copy";
  ARMNET_CHECK(shadow == nullptr || (shadow != model && shadow != standby))
      << "shadow must be a distinct model copy";
  ARMNET_CHECK_GE(options_.queue_capacity, 1);
  ARMNET_CHECK_GE(options_.max_batch_size, 1);
  ARMNET_CHECK_GE(options_.num_workers, 1);
  slots_[0].model = model;
  slots_[1].model = standby;
  slots_[kShadowSlot].model = shadow;
  slots_[kFallbackSlot].model = fallback;
  // Shard 0 is the submit path (and manual DrainOnce); worker i gets i + 1.
  shards_.reserve(static_cast<size_t>(options_.num_workers) + 1);
  for (int i = 0; i <= options_.num_workers; ++i) {
    shards_.push_back(std::make_unique<CounterShard>());
  }
  // Disabled (every method a no-op) unless the artifact carries a
  // DriftReference. Shard layout mirrors the counter shards.
  drift_ = std::make_unique<DriftMonitor>(space_, options_.drift, clock_,
                                          options_.num_workers + 1);
  // Eval mode for the service's whole lifetime: a per-forward mode guard
  // would be a write race between workers sharing one module tree.
  for (Slot& slot : slots_) {
    if (slot.model != nullptr) slot.model->SetTraining(false);
  }
  // Compiled inference per primary slot. Warming the active slot at the
  // micro-batch cap front-loads the most common trace; other batch sizes
  // compile lazily on first sight. A failed warm is an incident, not an
  // error: those batches serve interpreted.
  for (int i = 0; i < 2; ++i) {
    if (slots_[i].model != nullptr) {
      slots_[i].predictor =
          std::make_unique<plan::CompiledPredictor>(slots_[i].model);
    }
  }
  Status warmed =
      slots_[0].predictor->Warm(options_.max_batch_size, space_.num_fields());
  if (!warmed.ok()) {
    RecordIncident("compiled-plan warm failed, serving interpreted: " +
                   warmed.message());
  }
  if (options_.start_worker) {
    MutexLock lock(shutdown_mutex_);
    for (int i = 0; i < options_.num_workers; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::Shutdown() {
  MutexLock shutdown_lock(shutdown_mutex_);
  alive_.store(false);
  {
    MutexLock lock(queue_mutex_);
    running_ = false;
  }
  queue_cv_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Flush: every still-queued request gets a typed terminal answer so no
  // Wait() can hang past shutdown. A Submit racing this either pushed
  // before running_ flipped (its ticket is in this flush) or observes
  // running_ == false and completes kUnavailable itself.
  std::deque<std::shared_ptr<PendingPrediction>> leftover;
  {
    MutexLock lock(queue_mutex_);
    leftover.swap(queue_);
  }
  shards_[0]->Add(&ServeCounters::failed,
                  static_cast<int64_t>(leftover.size()));
  for (const auto& pending : leftover) {
    CompleteTerminal(*pending, ServeCode::kUnavailable,
                     "service shutting down");
  }
}

std::shared_ptr<PendingPrediction> PredictionService::Submit(
    const std::vector<std::string>& cells, double deadline_seconds) {
  ARMNET_PROFILE_COUNT("serve/submitted", 1);
  auto pending = std::make_shared<PendingPrediction>();
  pending->submitted_at_ = clock_->NowSeconds();
  CounterShard& shard = *shards_[0];
  shard.Add(&ServeCounters::submitted, 1);

  data::MappedRow mapped;
  Status status = space_.MapRow(cells, &mapped);
  if (!status.ok()) {
    ARMNET_PROFILE_COUNT("serve/rejected_invalid", 1);
    shard.Add(&ServeCounters::rejected_invalid, 1);
    CompleteTerminal(*pending, ServeCode::kInvalidArgument, status.message());
    return pending;
  }
  pending->ids_ = std::move(mapped.ids);
  pending->values_ = std::move(mapped.values);
  pending->oov_fields_ = mapped.oov_fields;
  pending->clamped_fields_ = mapped.clamped_fields;
  pending->oov_field_indices_ = std::move(mapped.oov_field_indices);
  pending->clamped_field_indices_ = std::move(mapped.clamped_field_indices);
  if (mapped.oov_fields > 0 || mapped.clamped_fields > 0) {
    ARMNET_PROFILE_COUNT("serve/oov_fields", mapped.oov_fields);
    ARMNET_PROFILE_COUNT("serve/clamped_fields", mapped.clamped_fields);
    shard.Add(&ServeCounters::oov_fields, mapped.oov_fields);
    shard.Add(&ServeCounters::clamped_fields, mapped.clamped_fields);
  }

  const double budget = deadline_seconds < 0
                            ? options_.default_deadline_seconds
                            : deadline_seconds;
  pending->deadline_ = pending->submitted_at_ + budget;
  if (budget <= 0) {
    ARMNET_PROFILE_COUNT("serve/expired", 1);
    shard.Add(&ServeCounters::expired, 1);
    CompleteTerminal(*pending, ServeCode::kDeadlineExceeded,
                     "deadline expired before admission");
    return pending;
  }

  bool admitted = false;
  bool accepting = true;
  std::vector<std::shared_ptr<PendingPrediction>> victims;
  {
    MutexLock lock(queue_mutex_);
    if (!running_ || !alive_.load()) {
      accepting = false;
    } else if (static_cast<int64_t>(queue_.size()) < options_.queue_capacity) {
      queue_.push_back(pending);
      admitted = true;
      if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
        ready_saturated_ = true;
      }
      // High-watermark shed: above the watermark, evict the requests with
      // the most deadline remaining — the ones nearest their deadline keep
      // their place, and the shed clients get a typed answer now instead of
      // an expiry later.
      if (options_.shed_watermark >= 0) {
        while (static_cast<int64_t>(queue_.size()) > options_.shed_watermark) {
          auto victim = std::max_element(
              queue_.begin(), queue_.end(),
              [](const std::shared_ptr<PendingPrediction>& a,
                 const std::shared_ptr<PendingPrediction>& b) {
                return a->deadline_ < b->deadline_;
              });
          victims.push_back(std::move(*victim));
          queue_.erase(victim);
        }
      }
    } else {
      ready_saturated_ = true;
    }
  }
  if (!accepting) {
    // Lost the race with Shutdown: still a typed terminal, never a hung
    // ticket.
    ARMNET_PROFILE_COUNT("serve/failed", 1);
    shard.Add(&ServeCounters::failed, 1);
    CompleteTerminal(*pending, ServeCode::kUnavailable,
                     "service shutting down");
    return pending;
  }
  if (!admitted) {
    ARMNET_PROFILE_COUNT("serve/rejected_overload", 1);
    shard.Add(&ServeCounters::rejected_overload, 1);
    CompleteTerminal(*pending, ServeCode::kOverloaded,
                     StrFormat("queue at capacity (%lld)",
                               static_cast<long long>(
                                   options_.queue_capacity)));
    return pending;
  }
  if (!victims.empty()) {
    ARMNET_PROFILE_COUNT("serve/shed", static_cast<int64_t>(victims.size()));
    shard.Add(&ServeCounters::shed, static_cast<int64_t>(victims.size()));
    for (const auto& victim : victims) {
      CompleteTerminal(*victim, ServeCode::kOverloaded,
                       StrFormat("shed past high watermark (%lld)",
                                 static_cast<long long>(
                                     options_.shed_watermark)));
    }
  }
  queue_cv_.NotifyOne();
  return pending;
}

PredictResult PredictionService::Predict(const std::vector<std::string>& cells,
                                         double deadline_seconds) {
  return Submit(cells, deadline_seconds)->Wait();
}

int64_t PredictionService::DrainOnce() { return DrainBatch(0); }

int64_t PredictionService::DrainBatch(int shard_index) {
  CounterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  // An armed queue stall models a wedged worker: the queue keeps admitting
  // (until capacity) but nothing is popped while the fault fires.
  if (fault::ShouldFail(fault::kSiteServeQueueStall, fault::Kind::kFailOpen)) {
    return 0;
  }
  std::vector<std::shared_ptr<PendingPrediction>> taken;
  {
    MutexLock lock(queue_mutex_);
    while (!queue_.empty() &&
           static_cast<int64_t>(taken.size()) < options_.max_batch_size) {
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (ready_saturated_ &&
        static_cast<int64_t>(queue_.size()) <= ReadyLowWatermark(options_)) {
      ready_saturated_ = false;
    }
  }
  if (taken.empty()) return 0;

  // Deadline gate: an expired request never reaches the model.
  const double now = clock_->NowSeconds();
  std::vector<std::shared_ptr<PendingPrediction>> live;
  live.reserve(taken.size());
  int64_t newly_expired = 0;
  for (auto& pending : taken) {
    if (pending->deadline_ <= now) {
      ARMNET_PROFILE_COUNT("serve/expired", 1);
      ++newly_expired;
      CompleteTerminal(*pending, ServeCode::kDeadlineExceeded,
                       "deadline expired in queue");
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (newly_expired > 0) shard.Add(&ServeCounters::expired, newly_expired);
  if (!live.empty()) ProcessBatch(live, shard_index);
  return static_cast<int64_t>(taken.size());
}

void PredictionService::WorkerLoop(int worker_index) {
  const int shard_index = worker_index + 1;
  while (true) {
    {
      MutexLock lock(queue_mutex_);
      // Idle workers block here — an enqueue or shutdown notifies; no
      // timed polling while the queue is empty.
      queue_cv_.Wait(queue_mutex_, [this]() ARMNET_REQUIRES(queue_mutex_) {
        return !running_ || !queue_.empty();
      });
      if (!running_) break;
      // Adaptive accumulation: give the batch time to fill while the
      // controller reports latency headroom — but never past the earliest
      // queued deadline and never once the batch is already full.
      double wait = policy_.CurrentWaitSeconds();
      if (wait > 0 &&
          static_cast<int64_t>(queue_.size()) < options_.max_batch_size) {
        double earliest = queue_.front()->deadline_;
        for (const auto& pending : queue_) {
          earliest = std::min(earliest, pending->deadline_);
        }
        wait = std::min(wait, earliest - clock_->NowSeconds());
        if (wait > 0) clock_->WaitFor(queue_cv_, queue_mutex_, wait);
        if (!running_) break;
        if (queue_.empty()) continue;
      }
    }
    // An armed worker stall parks this worker mid-drain (GC pause, page-in,
    // scheduler eviction): bounded in real time so tests cannot hang, and
    // mirrored onto the clock so queued deadlines burn down behind it.
    const double stall =
        fault::ClockStallSeconds(fault::kSiteServeWorkerStall);
    if (stall > 0) {
      Mutex park_mutex;
      CondVar park_cv;
      {
        MutexLock park(park_mutex);
        park_cv.WaitFor(park_mutex, std::min(stall, 0.050));
      }
      clock_->Advance(stall);
    }
    DrainBatch(shard_index);
  }
}

// --- Model slots -------------------------------------------------------------

int PredictionService::BeginRead(int slot) {
  const bool active = slot == kActiveSlot;
  MutexLock lock(model_mutex_);
  model_cv_.Wait(model_mutex_, [&]() ARMNET_REQUIRES(model_mutex_) {
    if (active) slot = active_index_;
    return !state_[slot].writing;
  });
  ++state_[slot].readers;
  return slot;
}

void PredictionService::EndRead(int slot) {
  bool wake_writer = false;
  {
    MutexLock lock(model_mutex_);
    SlotState& state = state_[slot];
    wake_writer = --state.readers == 0 && state.writing;
  }
  if (wake_writer) model_cv_.NotifyAll();
}

void PredictionService::BeginWrite(int slot) {
  MutexLock lock(model_mutex_);
  state_[slot].writing = true;
  model_cv_.Wait(model_mutex_, [&]() ARMNET_REQUIRES(model_mutex_) {
    return state_[slot].readers == 0;
  });
}

void PredictionService::EndWrite(int slot) {
  {
    MutexLock lock(model_mutex_);
    state_[slot].writing = false;
  }
  model_cv_.NotifyAll();
}

int PredictionService::ActiveSlot() {
  MutexLock lock(model_mutex_);
  return active_index_;
}

void PredictionService::RestagePlans(int slot,
                                     const std::vector<int64_t>& sizes) {
  plan::CompiledPredictor& predictor = *slots_[slot].predictor;
  predictor.Invalidate();
  for (int64_t bs : sizes) {
    Status warmed = predictor.Warm(bs, space_.num_fields());
    if (!warmed.ok()) {
      RecordIncident("compiled-plan restage failed: " + warmed.message());
      return;
    }
  }
}

void PredictionService::ProcessBatch(
    const std::vector<std::shared_ptr<PendingPrediction>>& batch,
    int shard_index) {
  ARMNET_PROFILE_SCOPE("serve/ProcessBatch");
  CounterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  // An injected stall models a slow forward (page-in, contended CPU): the
  // clock jumps so requests queued behind this batch see their deadlines
  // consumed.
  const double stall =
      fault::ClockStallSeconds(fault::kSiteServeSlowForward);
  if (stall > 0) clock_->Advance(stall);

  if (!breaker_.AllowRequest()) {
    Degrade(batch, shard, "circuit breaker open");
    // Drift still observes the drained inputs (no scores: no primary
    // forward ran) — an OOV flood during a breaker-open spell must not be
    // invisible.
    ObserveDrift(shard_index, batch, nullptr);
    HandleDriftEvents(shard_index);
    return;
  }
  const data::Batch b = AssembleBatch(batch);
  std::vector<float> logits;
  // Read the live primary slot for the forward — never under a lock. A
  // concurrent reload with a standby writes the other slot.
  const int slot = BeginRead(kActiveSlot);
  const bool finite = ForwardBatch(slot, b, &logits);
  EndRead(slot);
  if (!finite) {
    // The attempt still counts as a batch (the breaker-open path above does
    // not): `batches` tracks forwards issued to the primary model.
    shard.Add(&ServeCounters::batches, 1);
    breaker_.RecordFailure();
    RecordIncident("primary model produced non-finite logits");
    Degrade(batch, shard, "primary model produced non-finite logits");
    ObserveDrift(shard_index, batch, nullptr);
    HandleDriftEvents(shard_index);
    return;
  }
  breaker_.RecordSuccess();
  ARMNET_PROFILE_COUNT("serve/completed_ok",
                       static_cast<int64_t>(batch.size()));
  {
    // One critical section for the batch and its outcomes: a concurrent
    // counters() snapshot can never observe the batch without its
    // completions (the torn window the annotations audit flagged).
    MutexLock guard(shard.mutex);
    ++shard.counters.batches;
    shard.counters.completed_ok += static_cast<int64_t>(batch.size());
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    CompleteOk(*batch[i], logits[i], /*degraded=*/false);
  }
  // Everything below runs AFTER the primary completions were delivered:
  // drift windows, alert evaluation, and the mirrored shadow forward are
  // off the request critical path by construction.
  ObserveDrift(shard_index, batch, &logits);
  HandleDriftEvents(shard_index);
  MirrorToShadow(b, logits, shard_index);
}

data::Batch PredictionService::AssembleBatch(
    const std::vector<std::shared_ptr<PendingPrediction>>& batch) const {
  const int m = space_.num_fields();
  data::Batch b;
  b.batch_size = static_cast<int64_t>(batch.size());
  b.num_fields = m;
  b.ids.reserve(batch.size() * static_cast<size_t>(m));
  b.values.reserve(batch.size() * static_cast<size_t>(m));
  for (const auto& pending : batch) {
    b.ids.insert(b.ids.end(), pending->ids_.begin(), pending->ids_.end());
    b.values.insert(b.values.end(), pending->values_.begin(),
                    pending->values_.end());
  }
  b.labels.assign(batch.size(), 0.0f);
  return b;
}

bool PredictionService::ForwardBatch(int slot, const data::Batch& b,
                                     std::vector<float>* logits) {
  ARMNET_PROFILE_SCOPE("serve/Forward");
  // The model is in eval mode for the service's lifetime and the caller
  // holds a reader reference (writes wait for readers to leave), so the
  // forward is a pure read — safe concurrently from every worker.
  //
  // Fast path: the slot's compiled plan replays the forward out of its
  // preallocated arena. TryRun compiles on a batch-size miss and refuses
  // whenever compiled execution is unavailable; then the interpreted
  // tape-free forward answers instead.
  const Slot& s = slots_[slot];
  if (s.predictor == nullptr || !s.predictor->TryRun(b, logits)) {
    NoGradGuard no_grad;
    Rng rng(0);  // eval mode uses no randomness
    Variable out = s.model->Forward(b, rng);
    const Tensor& values = out.value();
    if (values.numel() != b.batch_size) return false;
    logits->resize(static_cast<size_t>(b.batch_size));
    for (int64_t i = 0; i < values.numel(); ++i) {
      (*logits)[static_cast<size_t>(i)] = values[i];
    }
  }
  bool finite = true;
  for (const float logit : *logits) {
    if (!std::isfinite(logit)) finite = false;
  }
  return finite;
}

void PredictionService::Degrade(
    const std::vector<std::shared_ptr<PendingPrediction>>& batch,
    CounterShard& shard, const std::string& why) {
  ARMNET_PROFILE_SCOPE("serve/Degrade");
  if (slots_[kFallbackSlot].model != nullptr) {
    const data::Batch b = AssembleBatch(batch);
    std::vector<float> logits;
    // The fallback is never written, so its read never waits.
    BeginRead(kFallbackSlot);
    const bool finite = ForwardBatch(kFallbackSlot, b, &logits);
    EndRead(kFallbackSlot);
    if (finite) {
      ARMNET_PROFILE_COUNT("serve/degraded_fallback",
                           static_cast<int64_t>(batch.size()));
      shard.Add(&ServeCounters::degraded_fallback,
                static_cast<int64_t>(batch.size()));
      for (size_t i = 0; i < batch.size(); ++i) {
        CompleteOk(*batch[i], logits[i], /*degraded=*/true);
      }
      return;
    }
    RecordIncident("fallback model produced non-finite logits");
  }
  if (options_.degrade_to_prior) {
    const float logit = PriorLogit(space_.train_positive_rate());
    ARMNET_PROFILE_COUNT("serve/degraded_prior",
                         static_cast<int64_t>(batch.size()));
    shard.Add(&ServeCounters::degraded_prior,
              static_cast<int64_t>(batch.size()));
    for (const auto& pending : batch) {
      CompleteOk(*pending, logit, /*degraded=*/true);
    }
    return;
  }
  ARMNET_PROFILE_COUNT("serve/failed", static_cast<int64_t>(batch.size()));
  shard.Add(&ServeCounters::failed, static_cast<int64_t>(batch.size()));
  for (const auto& pending : batch) {
    CompleteTerminal(*pending, ServeCode::kUnavailable, why);
  }
}

void PredictionService::CompleteOk(PendingPrediction& pending, float logit,
                                   bool degraded) {
  PredictResult result;
  result.code = ServeCode::kOk;
  result.logit = logit;
  result.probability = Sigmoid(logit);
  result.degraded = degraded;
  const double latency =
      std::max(0.0, clock_->NowSeconds() - pending.submitted_at_);
  result.latency_seconds = latency;
  // Every answered request feeds the adaptive-batching control loop.
  policy_.RecordLatency(latency);
  pending.Complete(std::move(result));
}

void PredictionService::CompleteTerminal(PendingPrediction& pending,
                                         ServeCode code, std::string message) {
  PredictResult result;
  result.code = code;
  result.message = std::move(message);
  result.latency_seconds =
      std::max(0.0, clock_->NowSeconds() - pending.submitted_at_);
  pending.Complete(std::move(result));
}

void PredictionService::ObserveDrift(
    int shard_index,
    const std::vector<std::shared_ptr<PendingPrediction>>& batch,
    const std::vector<float>* logits) {
  if (!drift_->enabled()) return;
  DriftBatchSample sample;
  sample.rows = static_cast<int64_t>(batch.size());
  const size_t m = static_cast<size_t>(space_.num_fields());
  sample.oov_counts.assign(m, 0);
  sample.clamp_counts.assign(m, 0);
  for (const auto& pending : batch) {
    for (int32_t f : pending->oov_field_indices_) {
      ++sample.oov_counts[static_cast<size_t>(f)];
    }
    for (int32_t f : pending->clamped_field_indices_) {
      ++sample.clamp_counts[static_cast<size_t>(f)];
    }
  }
  if (logits != nullptr) sample.logits = *logits;
  drift_->Observe(shard_index, &sample);
}

void PredictionService::HandleDriftEvents(int shard_index) {
  if (!drift_->enabled()) return;
  const DriftEvents events = drift_->EvaluateAlerts();
  if (!events.raised.empty()) {
    ARMNET_PROFILE_COUNT("serve/drift_alerts",
                         static_cast<int64_t>(events.raised.size()));
    shards_[static_cast<size_t>(shard_index)]->Add(
        &ServeCounters::drift_alerts,
        static_cast<int64_t>(events.raised.size()));
    for (const std::string& description : events.raised) {
      RecordIncident(description);
    }
    // Delta evidence gathered against drifted traffic says nothing about
    // how the candidate behaves on the training distribution.
    DismissShadow("drift alert active, mirrored evidence invalidated");
  }
  for (const std::string& key : events.cleared) {
    RecordIncident("drift cleared: " + key);
  }
}

void PredictionService::MirrorToShadow(const data::Batch& b,
                                       const std::vector<float>& primary_logits,
                                       int shard_index) {
  if (slots_[kShadowSlot].model == nullptr ||
      !shadow_active_.load(std::memory_order_relaxed)) {
    return;
  }
  const double fraction = options_.shadow.mirror_fraction;
  if (fraction <= 0) return;
  // Deterministic sampling: batch n mirrors iff floor((n+1)·f) crosses an
  // integer — exactly a fraction f of the batch sequence, no RNG.
  const int64_t seq = shadow_batch_seq_.fetch_add(1, std::memory_order_relaxed);
  if (fraction < 1.0) {
    const auto before = static_cast<int64_t>(static_cast<double>(seq) *
                                             fraction);
    const auto after = static_cast<int64_t>(static_cast<double>(seq + 1) *
                                            fraction);
    if (after == before) return;
  }
  ARMNET_PROFILE_SCOPE("serve/ShadowForward");
  // An armed shadow stall parks this worker briefly in REAL time — never
  // the service clock — modeling a slow candidate. Queued primary requests
  // wait a little longer for this worker, but no deadline burns faster and
  // the breaker never hears about it.
  const double stall = fault::ClockStallSeconds(fault::kSiteServeShadowStall);
  if (stall > 0) {
    Mutex park_mutex;
    CondVar park_cv;
    MutexLock park(park_mutex);
    park_cv.WaitFor(park_mutex, std::min(stall, 0.050));
  }
  // Read the shadow slot; re-check activation now that no LoadShadowModel
  // can be mid-write. The evidence is recorded inside the read, so a
  // restage cannot reset the evaluator between this forward and its record.
  CounterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  BeginRead(kShadowSlot);
  if (shadow_active_.load(std::memory_order_relaxed)) {
    std::vector<float> shadow_logits;
    if (!ForwardBatch(kShadowSlot, b, &shadow_logits)) {
      // A broken candidate is evidence against promotion, nothing more: no
      // breaker, no degradation, no request ever sees it.
      shadow_eval_.RecordFailure();
      shard.Add(&ServeCounters::shadow_failures, 1);
    } else {
      shadow_eval_.Record(primary_logits, shadow_logits);
      ARMNET_PROFILE_COUNT("serve/shadow_mirrored_rows", b.batch_size);
      shard.Add(&ServeCounters::shadow_mirrored_batches, 1);
      shard.Add(&ServeCounters::shadow_mirrored_rows, b.batch_size);
    }
  }
  EndRead(kShadowSlot);
}

Status PredictionService::LoadShadowModel(const std::string& path) {
  ARMNET_PROFILE_SCOPE("serve/LoadShadowModel");
  if (slots_[kShadowSlot].model == nullptr) {
    return Status::Error(
        "no shadow slot configured: pass a shadow model to the constructor");
  }
  Status status;
  {
    MutexLock reload_lock(reload_mutex_);
    // Deactivate first: whatever evidence the previous candidate gathered
    // does not describe the weights this stage is about to install, and a
    // failed stage leaves the slot's weights unspecified-but-unused.
    shadow_active_.store(false, std::memory_order_relaxed);
    BeginWrite(kShadowSlot);
    status = nn::LoadState(*slots_[kShadowSlot].model, path);
    if (status.ok()) {
      slots_[kShadowSlot].model->SetTraining(false);
      shadow_source_path_ = path;
      shadow_eval_.Reset();
      shadow_active_.store(true, std::memory_order_relaxed);
    }
    EndWrite(kShadowSlot);
  }
  CounterShard& shard = *shards_[0];
  if (!status.ok()) {
    ARMNET_PROFILE_COUNT("serve/shadow_loads_rejected", 1);
    shard.Add(&ServeCounters::shadow_loads_rejected, 1);
    RecordIncident("shadow candidate rejected: " + status.message());
    return status;
  }
  ARMNET_PROFILE_COUNT("serve/shadow_loads", 1);
  shard.Add(&ServeCounters::shadow_loads, 1);
  RecordIncident("shadow candidate staged: " + path);
  return Status::Ok();
}

Status PredictionService::PromoteShadow() {
  ARMNET_PROFILE_SCOPE("serve/PromoteShadow");
  if (!ShadowActive()) return Status::Error("no shadow candidate staged");
  std::string path;
  {
    MutexLock reload_lock(reload_mutex_);
    path = shadow_source_path_;
  }
  const ShadowStats stats = shadow_eval_.Snapshot();
  const ShadowOptions& bounds = options_.shadow;
  std::string refusal;
  if (stats.mirrored_rows < bounds.min_mirrored_rows) {
    refusal = StrFormat(
        "insufficient evidence: %lld mirrored rows < %lld required",
        static_cast<long long>(stats.mirrored_rows),
        static_cast<long long>(bounds.min_mirrored_rows));
  } else if (stats.failed_forwards > 0) {
    refusal = StrFormat(
        "candidate produced non-finite logits on %lld mirrored batch(es)",
        static_cast<long long>(stats.failed_forwards));
  } else if (stats.mean_abs_delta > bounds.max_mean_abs_delta) {
    refusal = StrFormat(
        "mean |dlogit| %.4f exceeds bound %.4f over %lld mirrored rows",
        stats.mean_abs_delta, bounds.max_mean_abs_delta,
        static_cast<long long>(stats.mirrored_rows));
  } else if (stats.p99_abs_delta > bounds.max_p99_abs_delta) {
    refusal = StrFormat(
        "p99 |dlogit| %.4f exceeds bound %.4f over %lld mirrored rows",
        stats.p99_abs_delta, bounds.max_p99_abs_delta,
        static_cast<long long>(stats.mirrored_rows));
  } else if (stats.disagreement_rate > bounds.max_disagreement_rate) {
    refusal = StrFormat(
        "disagreement rate %.4f exceeds bound %.4f over %lld mirrored rows",
        stats.disagreement_rate, bounds.max_disagreement_rate,
        static_cast<long long>(stats.mirrored_rows));
  }
  CounterShard& shard = *shards_[0];
  if (!refusal.empty()) {
    ARMNET_PROFILE_COUNT("serve/shadow_promotions_refused", 1);
    shard.Add(&ServeCounters::shadow_promotions_refused, 1);
    RecordIncident("shadow promotion refused: " + refusal);
    return Status::Error("shadow promotion refused: " + refusal);
  }
  // Publish through the normal reload path (RCU with a standby). A mirror
  // comparing the outgoing primary against the candidate meanwhile is
  // harmless.
  Status status = ReloadModel(path);
  if (!status.ok()) {
    ARMNET_PROFILE_COUNT("serve/shadow_promotions_refused", 1);
    shard.Add(&ServeCounters::shadow_promotions_refused, 1);
    RecordIncident("shadow promotion failed at publish: " + status.message());
    return status;
  }
  shadow_active_.store(false, std::memory_order_relaxed);
  ARMNET_PROFILE_COUNT("serve/shadow_promotions_ok", 1);
  shard.Add(&ServeCounters::shadow_promotions_ok, 1);
  RecordIncident(StrFormat(
      "shadow promoted: %s (mean |dlogit| %.4f, p99 %.4f, disagreement "
      "%.4f over %lld mirrored rows)",
      path.c_str(), stats.mean_abs_delta, stats.p99_abs_delta,
      stats.disagreement_rate, static_cast<long long>(stats.mirrored_rows)));
  return Status::Ok();
}

void PredictionService::DismissShadow(const std::string& reason) {
  if (!shadow_active_.exchange(false, std::memory_order_relaxed)) return;
  ARMNET_PROFILE_COUNT("serve/shadow_dismissed", 1);
  shards_[0]->Add(&ServeCounters::shadow_dismissed, 1);
  RecordIncident("shadow dismissed: " + reason);
}

bool PredictionService::ShadowActive() const {
  return shadow_active_.load(std::memory_order_relaxed);
}

ShadowStats PredictionService::ShadowSnapshot() const {
  return shadow_eval_.Snapshot();
}

bool PredictionService::DriftAlertActive() const {
  return drift_->alert_active();
}

DriftSnapshotData PredictionService::DriftSnapshot() {
  return drift_->Snapshot();
}

std::vector<std::pair<std::string, double>>
PredictionService::DriftMetricsSnapshot() {
  std::vector<std::pair<std::string, double>> out = drift_->MetricsSnapshot();
  const ShadowStats s = shadow_eval_.Snapshot();
  out.emplace_back("shadow/active", ShadowActive() ? 1.0 : 0.0);
  out.emplace_back("shadow/mirrored_batches",
                   static_cast<double>(s.mirrored_batches));
  out.emplace_back("shadow/mirrored_rows",
                   static_cast<double>(s.mirrored_rows));
  out.emplace_back("shadow/failed_forwards",
                   static_cast<double>(s.failed_forwards));
  out.emplace_back("shadow/mean_abs_delta", s.mean_abs_delta);
  out.emplace_back("shadow/p99_abs_delta", s.p99_abs_delta);
  out.emplace_back("shadow/max_abs_delta", s.max_abs_delta);
  out.emplace_back("shadow/disagreement_rate", s.disagreement_rate);
  return out;
}

Status PredictionService::ReloadModel(const std::string& path) {
  ARMNET_PROFILE_SCOPE("serve/ReloadModel");
  MutexLock reload_lock(reload_mutex_);
  Status status;
  size_t stores_detached = 0;
  if (fault::ShouldFail(fault::kSiteServeReloadCorrupt,
                        fault::Kind::kFailOpen)) {
    status = Status::Error("injected corrupt reload: " + path);
  } else {
    // Stage into the slot after the active one: the standby when one is
    // configured (off the serving path; new readers only ever begin on the
    // active slot, so only stragglers from before the previous publish are
    // waited out), else the active slot itself (its readers wait for the
    // stage). Only writers move active_index_, and they hold reload_mutex_.
    const int active = ActiveSlot();
    const int staged = slots_[1 - active].model != nullptr ? 1 - active
                                                           : active;
    const std::vector<int64_t> sizes =
        slots_[active].predictor->CachedBatchSizes();
    BeginWrite(staged);
    // LoadState stages and validates the whole file before touching any
    // module state; on failure the slot keeps its (intact) weights.
    status = nn::LoadState(*slots_[staged].model, path);
    if (status.ok()) {
      slots_[staged].model->SetTraining(false);
      // A quantized store pairs with the weights it was exported from;
      // fresh weights make it stale, so it comes off before the restage
      // (the recompiled plans must not capture the old quantized gather).
      DetachEmbeddingStores(*slots_[staged].model);
      // Recompile against the fresh weights BEFORE the publish: old plans
      // referenced the overwritten tensors, and warming now keeps the first
      // post-publish batches off the interpreted slow path.
      RestagePlans(staged, sizes);
    }
    EndWrite(staged);
    if (status.ok()) {
      // Publish after the write ends, so no reader of the new active slot
      // ever waits on it. The operator is told what the outgoing active
      // slot served with.
      MutexLock lock(model_mutex_);
      stores_detached = state_[active].stores.size();
      state_[staged].stores.clear();
      active_index_ = staged;
    }
  }

  CounterShard& shard = *shards_[0];
  if (!status.ok()) {
    ARMNET_PROFILE_COUNT("serve/reloads_rejected", 1);
    shard.Add(&ServeCounters::reloads_rejected, 1);
    RecordIncident("reload rejected, old model keeps serving: " +
                   status.message());
    return status;
  }
  ARMNET_PROFILE_COUNT("serve/reloads_ok", 1);
  shard.Add(&ServeCounters::reloads_ok, 1);
  if (stores_detached > 0) {
    RecordIncident(StrFormat(
        "reload detached %zu quantized embedding store(s): stores pair with "
        "the weights they were exported from; attach a re-exported one",
        stores_detached));
  }
  // Whatever failures the breaker accumulated were about the old weights.
  breaker_.Reset();
  return Status::Ok();
}

Status PredictionService::AttachEmbeddingStore(const std::string& path,
                                               int64_t hot_row_cache_slots) {
  ARMNET_PROFILE_SCOPE("serve/AttachEmbeddingStore");
  MutexLock reload_lock(reload_mutex_);
  // Open and fully validate the file BEFORE the write begins: a corrupt or
  // truncated store must cost the serving path nothing and leave the model
  // exactly as it was.
  StatusOr<std::shared_ptr<QuantizedTable>> opened =
      nn::OpenMappedEmbeddingStore(path);
  if (!opened.ok()) {
    RecordIncident("embedding store rejected, model untouched: " +
                   opened.status().message());
    return opened.status();
  }
  std::shared_ptr<QuantizedTable> store = std::move(opened).value();
  if (hot_row_cache_slots > 0) store->EnableHotRowCache(hot_row_cache_slots);

  // A write on the active slot: Embedding::AttachStore swaps the lookup
  // route that readers follow without a lock.
  const int active = ActiveSlot();
  BeginWrite(active);
  int attached = 0;
  for (nn::Module* m : slots_[active].model->SelfAndDescendants()) {
    auto* embedding = dynamic_cast<nn::Embedding*>(m);
    if (embedding != nullptr && embedding->num_rows() == store->rows() &&
        embedding->width() == store->width()) {
      embedding->AttachStore(store);
      ++attached;
    }
  }
  if (attached > 0) {
    // The slot's compiled plans captured the float32 gather; restage them
    // so the compiled path serves the quantized store too.
    RestagePlans(active, slots_[active].predictor->CachedBatchSizes());
    MutexLock lock(model_mutex_);
    state_[active].stores.push_back(store);
  }
  EndWrite(active);

  if (attached == 0) {
    const Status status = Status::Error(StrFormat(
        "embedding store %s ([%lld, %lld] %s) matches no embedding table in "
        "the active model",
        path.c_str(), static_cast<long long>(store->rows()),
        static_cast<long long>(store->width()),
        QuantKindName(store->kind())));
    RecordIncident("embedding store rejected, model untouched: " +
                   status.message());
    return status;
  }
  ARMNET_PROFILE_COUNT("serve/embedding_store_attached", 1);
  return Status::Ok();
}

bool PredictionService::Alive() const { return alive_.load(); }

bool PredictionService::Ready() {
  if (!alive_.load()) return false;
  // Half-open means "probing after failures" — recovering, not yet ready.
  if (!breaker_.Healthy()) return false;
  // A latched drift alert means answers are being computed on traffic the
  // model did not train for: still Alive (typed answers keep flowing), but
  // an orchestrator should stop routing new traffic here.
  if (drift_->alert_active()) return false;
  MutexLock lock(queue_mutex_);
  const int64_t size = static_cast<int64_t>(queue_.size());
  if (size >= options_.queue_capacity) ready_saturated_ = true;
  if (ready_saturated_ && size <= ReadyLowWatermark(options_)) {
    ready_saturated_ = false;
  }
  return !ready_saturated_;
}

ServeCounters PredictionService::counters() const {
  ServeCounters total;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mutex);
    total.MergeFrom(shard->counters);
  }
  return total;
}

std::vector<prof::CounterStats> PredictionService::CounterSnapshot() const {
  const ServeCounters c = counters();
  std::vector<prof::CounterStats> snapshot;
  for (const CounterField& f : kCounterFields) {
    snapshot.push_back({f.name, c.*f.field});
  }
  // Quantized embedding storage on the active slot: one row even when
  // nothing is attached, so the run-metrics schema is stable across
  // configurations.
  int64_t stores = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  {
    MutexLock lock(model_mutex_);
    const SlotState& active = state_[active_index_];
    stores = static_cast<int64_t>(active.stores.size());
    for (const auto& store : active.stores) {
      hits += static_cast<int64_t>(store->cache_hits());
      misses += static_cast<int64_t>(store->cache_misses());
    }
  }
  snapshot.push_back({"serve/embedding_stores_attached", stores});
  snapshot.push_back({"serve/embedding_cache_hits", hits});
  snapshot.push_back({"serve/embedding_cache_misses", misses});
  return snapshot;
}

std::vector<prof::CounterStats> PredictionService::PlanCounterSnapshot() const {
  plan::CompiledPredictor::Stats total;
  for (const Slot& slot : slots_) {
    if (slot.predictor == nullptr) continue;
    const plan::CompiledPredictor::Stats s = slot.predictor->stats();
    total.plans += s.plans;
    total.instructions += s.instructions;
    total.fused_ops += s.fused_ops;
    total.arena_bytes += s.arena_bytes;
    total.compiles += s.compiles;
    total.compile_failures += s.compile_failures;
    total.executions += s.executions;
    total.fallbacks += s.fallbacks;
    total.invalidations += s.invalidations;
  }
  return {
      {"plan/plans", total.plans},
      {"plan/instructions", total.instructions},
      {"plan/fused_ops", total.fused_ops},
      {"plan/arena_bytes", total.arena_bytes},
      {"plan/compiles", total.compiles},
      {"plan/compile_failures", total.compile_failures},
      {"plan/executions", total.executions},
      {"plan/fallbacks", total.fallbacks},
      {"plan/invalidations", total.invalidations},
  };
}

std::vector<std::pair<std::string, double>> PredictionService::GaugeSnapshot()
    const {
  return {
      {"serve/batch_wait_seconds", policy_.CurrentWaitSeconds()},
      {"serve/window_p99_seconds", policy_.WindowP99Seconds()},
  };
}

std::vector<std::string> PredictionService::incidents() const {
  MutexLock guard(incidents_mutex_);
  return incidents_;
}

void PredictionService::RecordIncident(std::string message) {
  MutexLock guard(incidents_mutex_);
  incidents_.push_back(std::move(message));
}

}  // namespace armnet::serve
