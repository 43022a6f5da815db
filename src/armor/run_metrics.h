#ifndef ARMNET_ARMOR_RUN_METRICS_H_
#define ARMNET_ARMOR_RUN_METRICS_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_mode.h"
#include "util/profiler.h"

namespace armnet::armor {

// One unified observability snapshot (DESIGN.md §10): the autograd tape
// counters and — when the profiler is compiled in and enabled — every scope
// timing and invocation counter recorded so far, plus optional serving,
// plan and drift sections, serialized as one JSON object.
struct RunMetrics {
  autograd::TapeStats tape;
  std::vector<prof::ScopeStats> scopes;
  std::vector<prof::CounterStats> counters;
  // Prediction-service counters (serve::PredictionService::CounterSnapshot),
  // present when a service was supplied at capture. Unlike `counters` these
  // are always populated — service counters are plain atomics, not gated on
  // the profiler being compiled in.
  bool has_serve = false;
  std::vector<prof::CounterStats> serve;
  // Continuous serving operating-point gauges (adaptive batch wait, windowed
  // p99 — serve::PredictionService::GaugeSnapshot). Counters answer "how
  // many"; these answer "where is the control loop sitting right now".
  std::vector<std::pair<std::string, double>> serve_gauges;
  // Compiled-plan counters (plan::CompiledPredictor::Stats, pre-extracted as
  // a name/count list — serve::PredictionService::PlanCounterSnapshot or a
  // bench's own predictor). Present when a compiled predictor was in play.
  bool has_plan = false;
  std::vector<prof::CounterStats> plan;
  // Drift/shadow gauges (serve::PredictionService::DriftMetricsSnapshot):
  // per-field windowed OOV/clamp rates vs baseline, score PSI, and the
  // shadow delta statistics. Present when a service was captured with its
  // drift snapshot (the "drift" section of the JSON).
  bool has_drift = false;
  std::vector<std::pair<std::string, double>> drift;
};

// Snapshots the process-wide tape stats and profiler registry. Both are
// cumulative across threads since their last Reset; bracket the workload
// with autograd::ResetTapeStats() / prof::Reset() for per-region deltas.
RunMetrics CaptureRunMetrics();

// As above, additionally embedding a prediction service's counter snapshot
// (the "serve" section of the JSON), optionally its operating-point gauges
// (the "serve_gauges" section), and optionally compiled-plan counters (the
// "plan" section, PredictionService::PlanCounterSnapshot). Takes the
// pre-extracted lists so armor depends on neither the serve nor the plan
// library.
RunMetrics CaptureRunMetrics(
    std::vector<prof::CounterStats> serve_counters,
    std::vector<std::pair<std::string, double>> serve_gauges = {},
    std::vector<prof::CounterStats> plan_counters = {},
    std::vector<std::pair<std::string, double>> drift_metrics = {});

// Compact single-line JSON object:
//   {"tape":{"nodes_recorded":N,"nodes_elided":N},
//    "scopes":[{"name":s,"count":N,"total_ms":f,"min_ms":f,"max_ms":f,
//               "p50_ms":f,"p99_ms":f},...],
//    "counters":[{"name":s,"count":N},...],
//    "serve":[{"name":s,"count":N},...],                  // if has_serve
//    "serve_gauges":[{"name":s,"value":f},...],           // if non-empty
//    "plan":[{"name":s,"count":N},...],                   // if has_plan
//    "drift":[{"name":s,"value":f},...]}                  // if has_drift
std::string RunMetricsJson(const RunMetrics& metrics);

}  // namespace armnet::armor

#endif  // ARMNET_ARMOR_RUN_METRICS_H_
