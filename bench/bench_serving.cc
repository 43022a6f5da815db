// Serving-path benchmark (DESIGN.md §11, §13): single-request latency
// through the full validate → map → queue → tape-free forward pipeline,
// burst behaviour under offered load past the admission bound, hot-reload
// cost, an open-loop Poisson worker-count × offered-load sweep, and reload
// churn under sustained load.
//
// The latency/burst/reload sections run in manual-drain mode on the
// measuring thread so the numbers are the pipeline's own cost, not
// worker-thread scheduling noise. The sweep and reload-under-load sections
// run real worker pools with an open-loop arrival process (the generator
// never waits for completions, so queueing delay is measured rather than
// hidden — the coordinated-omission trap a closed loop falls into).
// Requests mix in-vocabulary rows with OOV categoricals and out-of-range
// numericals, so the UNK/clamp paths are part of the measured steady state.
//
// Per-cell latency is timed from each request's scheduled arrival: the
// generator's lateness (submit time − scheduled arrival) plus
// PredictResult::latency_seconds, the service-clock submit-to-terminal
// time. A generator that falls behind its schedule therefore shows up in
// p50/p99 instead of silently thinning the offered load, and each open-loop
// row reports the lateness itself as late_p99_ms. Shed/overload/expired
// rates come from counter deltas.
//
// Report schema is v3: on top of the v2 sweep/* and reload/under_load rows,
// a drift/shadow sweep (DESIGN.md §16) runs arrival shapes (steady,
// diurnal, burst) against clean and hostile traffic mixes on a
// drift-enabled artifact with a live shadow model. Hostile mixes flood OOV
// categoricals, out-of-range numericals, and a skewed categorical
// distribution starting partway through the run; each cell reports whether
// the drift alert fired and its latency from hostile onset, plus the
// shadow mirroring statistics. The binary self-checks that every hostile
// cell alerts and no clean cell does. A shadow on/off A/B pair reports the
// mirroring overhead on primary p99, and a drift/section row mirrors the
// service's full drift metrics snapshot (the run-metrics "drift" section).
//
// Flags: --requests=<n> latency samples (default 2000), --capacity=<n>
// queue bound (default 256), --batch=<n> micro-batch cap (default 64),
// --reloads=<n> hot-reload samples (default 20), --sweep_requests=<n>
// arrivals per sweep cell (default 400), --shape_requests=<n> arrivals per
// drift/shadow shape cell (default 400), --json=<path> to also write the
// BENCH_serving.json report.

#include "bench/common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>

#include "armor/evaluator.h"
#include "data/feature_space.h"
#include "data/loader.h"
#include "models/lr.h"
#include "nn/serialize.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace armnet;

// A request generator cycling through healthy, OOV, and clamped rows.
std::vector<std::string> MakeRequest(int i) {
  switch (i % 4) {
    case 0: return {StrFormat("c%d", i % 50), StrFormat("%d", i % 100)};
    case 1: return {"unseen_city", StrFormat("%d", i % 100)};  // OOV
    case 2: return {StrFormat("c%d", i % 50), "1e9"};          // clamp
    default: return {StrFormat("c%d", (i * 7) % 50), "42"};
  }
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// Outcome of one open-loop run: arrivals issued on a schedule, every ticket
// waited at the end.
struct OpenLoopResult {
  double wall_seconds = 0;
  double throughput_rps = 0;  // completed-ok per wall second
  double p50_ms = 0;  // scheduled arrival to terminal, completed requests
  double p99_ms = 0;
  double max_ms = 0;
  double late_p99_ms = 0;  // generator lateness against the schedule, p99
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t overloaded = 0;
  int64_t expired = 0;
};

// The one open-loop driver. Arrival i is due `gap(i)` after arrival i - 1;
// `request(i, now)` builds its cells (`now` is seconds since the run
// began) and `poll(now)` runs after every submit and every wait. Pacing is
// deficit-based: the generator sleeps only when ahead of the schedule, so
// coarse OS sleep granularity cannot deflate the offered rate, and when it
// falls behind, the lateness is charged to the request's latency.
OpenLoopResult RunPaced(
    serve::PredictionService& service, int arrivals,
    const std::function<double(int)>& gap,
    const std::function<std::vector<std::string>(int, double)>& request,
    const std::function<void(double)>& poll) {
  const serve::ServeCounters before = service.counters();
  std::vector<std::shared_ptr<serve::PendingPrediction>> tickets;
  std::vector<double> late_seconds;
  tickets.reserve(static_cast<size_t>(arrivals));
  late_seconds.reserve(static_cast<size_t>(arrivals));
  Stopwatch watch;
  double due = 0;
  for (int i = 0; i < arrivals; ++i) {
    due += gap(i);
    const double ahead = due - watch.ElapsedSeconds();
    if (ahead > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
    const std::vector<std::string> cells = request(i, watch.ElapsedSeconds());
    late_seconds.push_back(std::max(0.0, watch.ElapsedSeconds() - due));
    tickets.push_back(service.Submit(cells, /*deadline=*/5.0));
    poll(watch.ElapsedSeconds());
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    const serve::PredictResult& result = tickets[i]->Wait();
    if (result.code == serve::ServeCode::kOk) {
      latencies_ms.push_back((late_seconds[i] + result.latency_seconds) * 1e3);
    }
    poll(watch.ElapsedSeconds());
  }
  OpenLoopResult out;
  out.wall_seconds = watch.ElapsedSeconds();
  const serve::ServeCounters after = service.counters();
  out.completed = after.completed_ok - before.completed_ok;
  out.shed = after.shed - before.shed;
  out.overloaded = after.rejected_overload - before.rejected_overload;
  out.expired = after.expired - before.expired;
  out.throughput_rps =
      static_cast<double>(out.completed) / std::max(out.wall_seconds, 1e-9);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  out.p50_ms = Percentile(latencies_ms, 0.5);
  out.p99_ms = Percentile(latencies_ms, 0.99);
  out.max_ms = latencies_ms.empty() ? 0 : latencies_ms.back();
  std::sort(late_seconds.begin(), late_seconds.end());
  out.late_p99_ms = Percentile(late_seconds, 0.99) * 1e3;
  return out;
}

// Drives `arrivals` Poisson arrivals at `rate_rps` against `service`.
OpenLoopResult RunOpenLoop(serve::PredictionService& service, int arrivals,
                           double rate_rps, uint64_t seed) {
  Rng rng(seed);
  return RunPaced(
      service, arrivals,
      [&](int) { return -std::log(1.0 - rng.Uniform()) / rate_rps; },
      [](int i, double) { return MakeRequest(i); }, [](double) {});
}

// --- Drift/shadow shape sweep (DESIGN.md §16) ----------------------------

constexpr double kPi = 3.14159265358979323846;

enum class ArrivalShape { kSteady, kDiurnal, kBurst };

const char* ShapeName(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kSteady: return "steady";
    case ArrivalShape::kDiurnal: return "diurnal";
    case ArrivalShape::kBurst: return "burst";
  }
  return "?";
}

// Inter-arrival gap for arrival `i` of `arrivals` at average rate
// `base_rate`. Steady and diurnal are Poisson (diurnal modulates the rate
// through one full sine "day" over the run, 0.3x..1.0x); burst issues
// back-to-back groups of 32 separated by gaps that preserve the average.
double NextGap(ArrivalShape shape, int i, int arrivals, double base_rate, Rng& rng) {
  switch (shape) {
    case ArrivalShape::kSteady:
      return -std::log(1.0 - rng.Uniform()) / base_rate;
    case ArrivalShape::kDiurnal: {
      const double phase =
          2.0 * kPi * static_cast<double>(i) / static_cast<double>(arrivals);
      const double rate = base_rate * (0.3 + 0.35 * (1.0 + std::sin(phase)));
      return -std::log(1.0 - rng.Uniform()) / rate;
    }
    case ArrivalShape::kBurst:
      return (i % 32 == 0) ? 32.0 / base_rate : 0.0;
  }
  return 0;
}

// Clean traffic mimics the training distribution with ~2% OOV noise —
// comfortably inside the drift thresholds.
std::vector<std::string> CleanRequest(int i) {
  if (i % 50 == 17) {
    return {"rare_new_city", StrFormat("%d", (i * 13) % 100)};
  }
  return {StrFormat("c%d", i % 50), StrFormat("%d", (i * 13) % 100)};
}

// Hostile traffic: OOV floods (fresh unseen value per request),
// out-of-range numericals, and a categorical skew collapsing onto a single
// training-time value — the drift monitor must flag all three.
std::vector<std::string> HostileRequest(int i) {
  switch (i % 4) {
    case 0: return {StrFormat("flood_%d", i), StrFormat("%d", i % 100)};
    case 1: return {"c49", "1e9"};
    case 2: return {StrFormat("flood_%d", i), "-1e9"};
    default: return {"c49", "7"};
  }
}

struct ShapeCellResult {
  OpenLoopResult loop;
  bool drift_alerted = false;
  double drift_alert_ms = -1;  // alert latency from hostile onset; -1 never
};

// One shape × mix cell: shaped open-loop arrivals, hostile rows taking
// over at 40% of the run when `hostile`. DriftAlertActive() is polled on
// the generator thread (one relaxed atomic load — never the drift window
// math, which stays on the worker drain path).
ShapeCellResult RunShapedCell(serve::PredictionService& service, ArrivalShape shape,
                              bool hostile, int arrivals, double rate_rps,
                              uint64_t seed) {
  Rng rng(seed);
  const int onset = hostile ? arrivals * 2 / 5 : arrivals;
  ShapeCellResult out;
  double onset_seconds = -1;
  // The last poll follows the last Wait: every ticket is terminal, so the
  // queue fully drained and the last drain-path alert evaluation already
  // ran — that check is authoritative.
  out.loop = RunPaced(
      service, arrivals,
      [&](int i) { return NextGap(shape, i, arrivals, rate_rps, rng); },
      [&](int i, double now) {
        const bool hot = i >= onset;
        if (hot && onset_seconds < 0) onset_seconds = now;
        return hot ? HostileRequest(i) : CleanRequest(i);
      },
      [&](double now) {
        if (!out.drift_alerted && service.DriftAlertActive()) {
          out.drift_alerted = true;
          out.drift_alert_ms = (now - std::max(onset_seconds, 0.0)) * 1e3;
        }
      });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = static_cast<int>(FlagInt(argc, argv, "requests", 2000));
  const int64_t capacity = FlagInt(argc, argv, "capacity", 256);
  const int64_t batch = FlagInt(argc, argv, "batch", 64);
  const int reloads = static_cast<int>(FlagInt(argc, argv, "reloads", 20));
  const int sweep_requests =
      static_cast<int>(FlagInt(argc, argv, "sweep_requests", 400));
  const int shape_requests =
      static_cast<int>(FlagInt(argc, argv, "shape_requests", 400));
  const std::string json_path = FlagValue(argc, argv, "json", "");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "armnet_bench_serving")
          .string();
  std::filesystem::create_directories(dir);

  // Train data: 50 cities, temps in [0, 100), label tied to the city id.
  std::vector<std::string> lines = {"label,city,temp"};
  for (int i = 0; i < 2000; ++i) {
    lines.push_back(StrFormat("%d,c%d,%d", (i % 50) < 25 ? 1 : 0, i % 50,
                              (i * 13) % 100));
  }
  const std::string csv = dir + "/train.csv";
  ARMNET_CHECK(WriteLines(csv, lines).ok());

  data::FeatureSpace space;
  StatusOr<data::Dataset> loaded = data::LoadCsvWithVocab(
      csv, {false, true}, data::LoadOptions{}, nullptr, ',', &space);
  ARMNET_CHECK(loaded.ok()) << loaded.status().message();

  Rng rng(7);
  models::Lr model(loaded.value().schema().num_features(), rng);
  armor::TrainConfig train;
  train.max_epochs = 2;
  train.batch_size = 256;
  data::Splits splits = data::SplitDataset(loaded.value(), rng);
  armor::Fit(model, splits, train);

  const std::string state_path = dir + "/model.state";
  ARMNET_CHECK(nn::SaveState(model, state_path).ok());

  serve::ServeOptions options;
  options.start_worker = false;
  options.queue_capacity = capacity;
  options.max_batch_size = batch;
  serve::PredictionService service(&model, space, options);

  bench::BenchReport report("serving");
  report.SetSchemaVersion(3);  // v3: shape/*, shadow/overhead, drift/section
  report.ConfigInt("requests", requests);
  report.ConfigInt("capacity", capacity);
  report.ConfigInt("batch", batch);
  report.ConfigInt("sweep_requests", sweep_requests);
  report.ConfigInt("shape_requests", shape_requests);

  std::printf("=== Serving pipeline: validate -> map -> queue -> forward "
              "(LR, %lld-feature space) ===\n",
              static_cast<long long>(space.schema().num_features()));

  // --- Single-request latency (queue depth 1) ----------------------------
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(requests));
  Stopwatch watch;
  for (int i = 0; i < requests; ++i) {
    watch.Restart();
    auto ticket = service.Submit(MakeRequest(i));
    service.DrainOnce();
    const serve::PredictResult& result = ticket->Wait();
    samples.push_back(watch.ElapsedSeconds() * 1e3);
    ARMNET_CHECK(result.code == serve::ServeCode::kOk)
        << serve::ServeCodeName(result.code);
  }
  std::sort(samples.begin(), samples.end());
  double mean = 0;
  double cv = 0;
  bench::MeanCv(samples, &mean, &cv);
  const double p50 = Percentile(samples, 0.5);
  const double p99 = Percentile(samples, 0.99);
  std::printf("latency/single: mean %.4f ms  p50 %.4f ms  p99 %.4f ms\n",
              mean, p50, p99);
  bench::BenchRow& latency = report.AddRow("latency/single");
  latency.ms_per_batch = mean;
  latency.cv = cv;
  latency.metrics.push_back({"p50_ms", p50});
  latency.metrics.push_back({"p99_ms", p99});

  // --- Burst behaviour around the admission bound ------------------------
  for (const int64_t burst : {capacity / 2, capacity, capacity * 2}) {
    const serve::ServeCounters before = service.counters();
    std::vector<std::shared_ptr<serve::PendingPrediction>> tickets;
    watch.Restart();
    for (int64_t i = 0; i < burst; ++i) {
      tickets.push_back(service.Submit(MakeRequest(static_cast<int>(i))));
    }
    while (service.DrainOnce() > 0) {
    }
    const double burst_ms = watch.ElapsedSeconds() * 1e3;
    const serve::ServeCounters after = service.counters();
    const int64_t rejected =
        after.rejected_overload - before.rejected_overload;
    const int64_t served = after.completed_ok - before.completed_ok;
    const double reject_rate =
        static_cast<double>(rejected) / static_cast<double>(burst);
    std::printf("burst/%-5lld: served %5lld  rejected %5lld "
                "(%.0f%%)  %.2f ms\n",
                static_cast<long long>(burst), static_cast<long long>(served),
                static_cast<long long>(rejected), reject_rate * 100.0,
                burst_ms);
    bench::BenchRow& row =
        report.AddRow(StrFormat("burst/%lld", static_cast<long long>(burst)));
    row.ms_per_batch = burst_ms;
    row.metrics.push_back({"reject_rate", reject_rate});
    row.counters.push_back({"served", served});
    row.counters.push_back({"rejected_overload", rejected});
  }

  // --- Hot-reload cost ---------------------------------------------------
  std::vector<double> reload_samples;
  for (int i = 0; i < reloads; ++i) {
    watch.Restart();
    ARMNET_CHECK(service.ReloadModel(state_path).ok());
    reload_samples.push_back(watch.ElapsedSeconds() * 1e3);
  }
  double reload_mean = 0;
  double reload_cv = 0;
  bench::MeanCv(reload_samples, &reload_mean, &reload_cv);
  std::printf("reload/state: mean %.4f ms over %d swaps\n", reload_mean,
              reloads);
  bench::BenchRow& reload_row = report.AddRow("reload/state");
  reload_row.ms_per_batch = reload_mean;
  reload_row.cv = reload_cv;

  // --- Open-loop Poisson sweep: worker count × offered load --------------
  // Fresh service per cell (worker pools are a construction-time choice);
  // the generator is open-loop, so queueing delay under overload shows up
  // in p99 instead of throttling the arrival process. Note: throughput
  // scaling across worker counts requires real cores — on a single-core
  // host the sweep measures the overhead of concurrency, not its payoff.
  std::printf("\n=== Open-loop sweep: workers x offered load "
              "(%d Poisson arrivals per cell) ===\n",
              sweep_requests);
  for (const int workers : {1, 2, 4}) {
    for (const double rate : {2000.0, 8000.0}) {
      Rng cell_rng(7);
      models::Lr cell_model(space.schema().num_features(), cell_rng);
      models::Lr cell_standby(space.schema().num_features(), cell_rng);
      ARMNET_CHECK(nn::LoadState(cell_model, state_path).ok());
      serve::ServeOptions cell_options;
      cell_options.start_worker = true;
      cell_options.num_workers = workers;
      cell_options.queue_capacity = capacity;
      cell_options.max_batch_size = batch;
      cell_options.latency_budget_seconds = 0.050;
      serve::PredictionService cell(&cell_model, space, cell_options,
                                    /*clock=*/nullptr, /*fallback=*/nullptr,
                                    &cell_standby);
      const OpenLoopResult r =
          RunOpenLoop(cell, sweep_requests, rate, /*seed=*/17);
      cell.Shutdown();
      const serve::ServeCounters cc = cell.counters();
      ARMNET_CHECK(cc.Terminal() == cc.submitted)
          << "sweep cell identity violated";
      std::printf("sweep/w%d/r%-5.0f: %7.0f rps  p50 %7.3f ms  p99 %7.3f ms"
                  "  shed %lld  overload %lld  expired %lld\n",
                  workers, rate, r.throughput_rps, r.p50_ms, r.p99_ms,
                  static_cast<long long>(r.shed),
                  static_cast<long long>(r.overloaded),
                  static_cast<long long>(r.expired));
      bench::BenchRow& row = report.AddRow(
          StrFormat("sweep/w%d/r%.0f", workers, rate));
      row.metrics.push_back({"offered_rps", rate});
      row.metrics.push_back({"throughput_rps", r.throughput_rps});
      row.metrics.push_back({"p50_ms", r.p50_ms});
      row.metrics.push_back({"p99_ms", r.p99_ms});
      row.metrics.push_back({"late_p99_ms", r.late_p99_ms});
      const double denom = static_cast<double>(sweep_requests);
      row.metrics.push_back(
          {"shed_rate", static_cast<double>(r.shed) / denom});
      row.metrics.push_back(
          {"overload_rate", static_cast<double>(r.overloaded) / denom});
      row.metrics.push_back(
          {"expired_rate", static_cast<double>(r.expired) / denom});
      row.counters.push_back({"workers", workers});
      row.counters.push_back({"completed_ok", r.completed});
    }
  }

  // --- Reload churn under sustained load ---------------------------------
  // Warm-standby RCU reload: the stage runs off the serving path, so load
  // must keep completing while reloads cycle. Reported: reload wall cost
  // and the p99/max request latency observed during the churn window — if
  // a reload blocked the workers, max_ms would jump by the reload cost.
  {
    Rng churn_rng(7);
    models::Lr churn_model(space.schema().num_features(), churn_rng);
    models::Lr churn_standby(space.schema().num_features(), churn_rng);
    ARMNET_CHECK(nn::LoadState(churn_model, state_path).ok());
    serve::ServeOptions churn_options;
    churn_options.start_worker = true;
    churn_options.num_workers = 2;
    churn_options.queue_capacity = capacity;
    churn_options.max_batch_size = batch;
    serve::PredictionService churn(&churn_model, space, churn_options,
                                   /*clock=*/nullptr, /*fallback=*/nullptr,
                                   &churn_standby);
    std::vector<double> reload_ms;
    std::atomic<bool> churn_stop{false};
    std::thread reloader([&] {
      Stopwatch reload_watch;
      while (!churn_stop.load()) {
        reload_watch.Restart();
        ARMNET_CHECK(churn.ReloadModel(state_path).ok());
        reload_ms.push_back(reload_watch.ElapsedSeconds() * 1e3);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    const OpenLoopResult under =
        RunOpenLoop(churn, sweep_requests, 4000.0, /*seed=*/29);
    churn_stop.store(true);
    reloader.join();
    churn.Shutdown();
    const serve::ServeCounters cc = churn.counters();
    ARMNET_CHECK(cc.Terminal() == cc.submitted)
        << "reload-churn identity violated";
    ARMNET_CHECK(cc.completed_ok > 0) << "no request completed under churn";
    double churn_reload_mean = 0;
    double churn_reload_cv = 0;
    bench::MeanCv(reload_ms, &churn_reload_mean, &churn_reload_cv);
    std::printf("reload/under_load: %zu reloads mean %.4f ms | traffic "
                "p99 %.3f ms max %.3f ms (%lld ok)\n",
                reload_ms.size(), churn_reload_mean, under.p99_ms,
                under.max_ms, static_cast<long long>(under.completed));
    bench::BenchRow& row = report.AddRow("reload/under_load");
    row.ms_per_batch = churn_reload_mean;
    row.cv = churn_reload_cv;
    row.metrics.push_back({"p99_ms", under.p99_ms});
    row.metrics.push_back({"max_ms", under.max_ms});
    row.metrics.push_back({"late_p99_ms", under.late_p99_ms});
    row.counters.push_back(
        {"reloads", static_cast<int64_t>(reload_ms.size())});
    row.counters.push_back({"completed_ok", under.completed});
  }

  // --- Drift/shadow shape sweep (DESIGN.md §16) --------------------------
  // A drift-enabled copy of the artifact: the trained model's score
  // histogram over the training table becomes the reference, exactly what
  // the trainer exports. Small windows so the smoke-scale run crosses
  // min_window_requests well inside each cell.
  data::FeatureSpace drift_space = space;
  {
    const std::vector<float> ref_logits =
        armor::PredictLogits(model, loaded.value(), /*batch_size=*/512);
    data::DriftReference reference;
    reference.score_histogram.assign(data::kDriftScoreBins, 0);
    for (float logit : ref_logits) {
      if (!std::isfinite(logit)) continue;
      const double score =
          1.0 / (1.0 + std::exp(-static_cast<double>(logit)));
      int bin = static_cast<int>(score * data::kDriftScoreBins);
      bin = std::clamp(bin, 0, data::kDriftScoreBins - 1);
      ++reference.score_histogram[static_cast<size_t>(bin)];
    }
    drift_space.set_drift_reference(std::move(reference));
  }
  serve::ServeOptions shape_options;
  shape_options.start_worker = true;
  shape_options.num_workers = 2;
  shape_options.queue_capacity = capacity;
  shape_options.max_batch_size = batch;
  shape_options.drift.window_seconds = 0.5;
  shape_options.drift.window_buckets = 5;
  shape_options.drift.min_window_requests = 50;
  shape_options.shadow.mirror_fraction = 0.5;
  shape_options.shadow.min_mirrored_rows = 16;

  std::printf("\n=== Drift/shadow sweep: arrival shape x traffic mix "
              "(%d arrivals per cell, hostile onset at 40%%) ===\n",
              shape_requests);
  for (const ArrivalShape shape :
       {ArrivalShape::kSteady, ArrivalShape::kDiurnal, ArrivalShape::kBurst}) {
    for (const bool hostile : {false, true}) {
      Rng cell_rng(7);
      models::Lr cell_model(space.schema().num_features(), cell_rng);
      models::Lr cell_shadow(space.schema().num_features(), cell_rng);
      ARMNET_CHECK(nn::LoadState(cell_model, state_path).ok());
      serve::PredictionService cell(&cell_model, drift_space, shape_options,
                                    /*clock=*/nullptr, /*fallback=*/nullptr,
                                    /*standby=*/nullptr, &cell_shadow);
      ARMNET_CHECK(cell.LoadShadowModel(state_path).ok());
      const ShapeCellResult r = RunShapedCell(
          cell, shape, hostile, shape_requests, /*rate_rps=*/2000.0,
          /*seed=*/31);
      cell.Shutdown();
      const serve::ShadowStats shadow = cell.ShadowSnapshot();
      const serve::ServeCounters cc = cell.counters();
      ARMNET_CHECK(cc.Terminal() == cc.submitted)
          << "shape cell identity violated with shadowing";
      if (hostile) {
        ARMNET_CHECK(r.drift_alerted)
            << ShapeName(shape) << "/hostile cell never raised a drift alert";
      } else {
        ARMNET_CHECK(!r.drift_alerted)
            << ShapeName(shape) << "/clean cell raised a spurious drift alert";
      }
      std::printf("shape/%-7s/%-7s: %6.0f rps  p99 %7.3f ms  alert %s"
                  "%s  mirrored %lld rows (mean |dlogit| %.4g)\n",
                  ShapeName(shape), hostile ? "hostile" : "clean",
                  r.loop.throughput_rps, r.loop.p99_ms,
                  r.drift_alerted ? "yes" : "no",
                  r.drift_alerted
                      ? StrFormat(" (+%.1f ms)", r.drift_alert_ms).c_str()
                      : "",
                  static_cast<long long>(shadow.mirrored_rows),
                  shadow.mean_abs_delta);
      bench::BenchRow& row = report.AddRow(StrFormat(
          "shape/%s/%s", ShapeName(shape), hostile ? "hostile" : "clean"));
      row.metrics.push_back({"drift_alerted", r.drift_alerted ? 1.0 : 0.0});
      row.metrics.push_back({"drift_alert_ms", r.drift_alert_ms});
      row.metrics.push_back({"throughput_rps", r.loop.throughput_rps});
      row.metrics.push_back({"p50_ms", r.loop.p50_ms});
      row.metrics.push_back({"p99_ms", r.loop.p99_ms});
      row.metrics.push_back({"late_p99_ms", r.loop.late_p99_ms});
      row.metrics.push_back({"shadow_mean_abs_delta", shadow.mean_abs_delta});
      row.metrics.push_back({"shadow_p99_abs_delta", shadow.p99_abs_delta});
      row.metrics.push_back(
          {"shadow_disagreement_rate", shadow.disagreement_rate});
      row.counters.push_back({"completed_ok", r.loop.completed});
      row.counters.push_back({"shed", r.loop.shed});
      row.counters.push_back({"rejected_overload", r.loop.overloaded});
      row.counters.push_back({"expired", r.loop.expired});
      row.counters.push_back(
          {"shadow_mirrored_batches", shadow.mirrored_batches});
      row.counters.push_back({"shadow_mirrored_rows", shadow.mirrored_rows});
      row.counters.push_back({"shadow_failures", shadow.failed_forwards});
    }
  }

  // --- Shadow mirroring overhead: on/off A/B on primary p99 --------------
  // Same steady clean workload with mirroring off then at fraction 1.0;
  // the delta on primary p99 is the mirroring tax (the forward runs after
  // primary completions were delivered, so only queueing pressure shows).
  // The drift/section row mirrors the shadow-on service's full drift
  // metrics snapshot — the "drift" section RunMetricsJson emits.
  {
    double p99_by_arm[2] = {0, 0};
    for (const bool shadow_on : {false, true}) {
      Rng ab_rng(7);
      models::Lr ab_model(space.schema().num_features(), ab_rng);
      models::Lr ab_shadow(space.schema().num_features(), ab_rng);
      ARMNET_CHECK(nn::LoadState(ab_model, state_path).ok());
      serve::ServeOptions ab_options = shape_options;
      ab_options.shadow.mirror_fraction = shadow_on ? 1.0 : 0.0;
      serve::PredictionService ab(&ab_model, drift_space, ab_options,
                                  /*clock=*/nullptr, /*fallback=*/nullptr,
                                  /*standby=*/nullptr, &ab_shadow);
      if (shadow_on) {
        ARMNET_CHECK(ab.LoadShadowModel(state_path).ok());
      }
      const ShapeCellResult r =
          RunShapedCell(ab, ArrivalShape::kSteady, /*hostile=*/false, shape_requests,
                        /*rate_rps=*/2000.0, /*seed=*/43);
      p99_by_arm[shadow_on ? 1 : 0] = r.loop.p99_ms;
      ab.Shutdown();
      const serve::ServeCounters cc = ab.counters();
      ARMNET_CHECK(cc.Terminal() == cc.submitted)
          << "shadow A/B identity violated";
      if (shadow_on) {
        bench::BenchRow& drift_row = report.AddRow("drift/section");
        for (const auto& [name, value] : ab.DriftMetricsSnapshot()) {
          drift_row.metrics.push_back({name, value});
        }
      }
    }
    const double overhead_pct =
        p99_by_arm[0] > 0
            ? (p99_by_arm[1] - p99_by_arm[0]) / p99_by_arm[0] * 100.0
            : 0.0;
    std::printf("shadow/overhead: p99 off %.3f ms on %.3f ms (%+.1f%%)\n",
                p99_by_arm[0], p99_by_arm[1], overhead_pct);
    bench::BenchRow& row = report.AddRow("shadow/overhead");
    row.metrics.push_back({"p99_off_ms", p99_by_arm[0]});
    row.metrics.push_back({"p99_on_ms", p99_by_arm[1]});
    row.metrics.push_back({"overhead_pct", overhead_pct});
  }

  // --- Service counter snapshot (the run-metrics "serve" section) --------
  bench::BenchRow& totals = report.AddRow("counters/total");
  for (const prof::CounterStats& c : service.CounterSnapshot()) {
    totals.counters.push_back({c.name, c.count});
  }
  for (const auto& [name, value] : service.GaugeSnapshot()) {
    totals.metrics.push_back({name, value});
  }
  const serve::ServeCounters counters = service.counters();
  ARMNET_CHECK(counters.Terminal() == counters.submitted)
      << "accounting identity violated: " << counters.Terminal() << " vs "
      << counters.submitted;
  std::printf("accounting: %lld submitted, all terminal\n",
              static_cast<long long>(counters.submitted));

  report.WriteIfRequested(json_path);
  return 0;
}
