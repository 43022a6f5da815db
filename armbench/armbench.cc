// armbench: end-to-end and per-layer benchmark of ARM-Net training, bulk
// scoring and online serving.
//
//   armbench --workload=<name> --seed=<n> --seconds=<s> --tmpdir=<dir>
//            --json=<report.json> [--trace=<trace.json>]
//
// Workloads (armbench/README.md says why each exists):
//   train-criteo-a17    closed loop, one trainer thread: taped Forward +
//                       BceWithLogits + Backward + Adam step, batch 256,
//                       Criteo-shaped data (m=39), alpha=1.7 (bisection).
//   bulk-criteo-a17     serve::PredictTable passes of 1,000 held-out rows
//                       (wave 512) through a 2-worker service, same model.
//   serve-frappe        open-loop Poisson arrivals at 2,000 req/s, then a
//                       closed-loop saturation phase with 256 requests in
//                       flight; Frappe-shaped data (m=10), alpha=2.0.
//   serve-frappe-churn  serve-frappe plus a reloader thread (ReloadModel
//                       every 250 ms through a warm standby) and shadow
//                       mirroring at fraction 0.5.
//
// The workload sees only inputs generated from --seed. Set-up (data
// generation, CSV + vocabulary, model build, state save, service start) runs
// three times and reports the median; the timed phase lasts --seconds.
// Every layer is measured from outside, by timing calls to public library
// functions. With --trace, each such call is also recorded as a span
// (written as Chrome trace-event JSON) and, after the timed phase, each
// layer is replayed on a representative batch to produce the per-layer
// metrics. End-to-end numbers are taken from untraced runs, most of them at
// a reference host speed (see HostProbe).
//
// Correctness checks run in every mode; the exit code is 1 if any fails.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "armor/evaluator.h"
#include "autograd/grad_mode.h"
#include "core/arm_net.h"
#include "data/feature_space.h"
#include "data/loader.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "optim/adam.h"
#include "plan/compiled_predictor.h"
#include "serve/predict_table.h"
#include "serve/service.h"
#include "tensor/backend.h"
#include "tensor/entmax.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

using namespace armnet;

// --- Workload constants ------------------------------------------------------

constexpr int64_t kTableRows = 40000;  // first half: vocab + training rows;
                                       // second half: scoring traffic
constexpr int kSetupRepeats = 3;
constexpr int64_t kTrainBatch = 256;
constexpr float kLearningRate = 1e-3f;
constexpr int kTrainWarmupSteps = 3;
constexpr int64_t kPassRows = 1000;  // rows per bulk PredictTable call
constexpr int kPassFiles = 4;
constexpr int64_t kWaveSize = 512;
constexpr int kServeWorkers = 2;
constexpr int64_t kQueueCapacity = 1024;
constexpr int64_t kMaxBatch = 64;
constexpr double kDeadlineSeconds = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kWarmupSaturationSeconds = 0.5;
constexpr double kNominalRps = 2000;
constexpr double kNominalShare = 0.7;  // of --seconds; the rest saturates
constexpr size_t kSaturationInFlight = 256;
constexpr double kUnseenTokenRate = 0.02;
constexpr double kReloadPeriodSeconds = 0.25;
constexpr double kShadowFraction = 0.5;
constexpr int64_t kSpotCheckEvery = 64;
constexpr double kSpotTolerance = 1e-5;
// Windows per timed phase for the latency percentiles: train steps and bulk
// passes are few and long; the serving phase has ~1,500 requests a window,
// so its p99 has ~15 samples beyond it.
constexpr int kLoopWindows = 5;
constexpr int kServeWindows = 9;
constexpr int64_t kMapReplayRows = 2000;
constexpr int64_t kDriftReferenceRows = 2048;

enum class Kind { kTrain, kBulk, kServe };

struct Workload {
  const char* name;
  Kind kind;
  const char* preset;
  float alpha;
  bool churn;
};

constexpr Workload kWorkloads[] = {
    {"train-criteo-a17", Kind::kTrain, "criteo", 1.7f, false},
    {"bulk-criteo-a17", Kind::kBulk, "criteo", 1.7f, false},
    {"serve-frappe", Kind::kServe, "frappe", 2.0f, false},
    {"serve-frappe-churn", Kind::kServe, "frappe", 2.0f, true},
};

// ARM-Net as the paper's default benches size it: K=4 heads, o=32 neurons
// per head, n_e=10, MLP 256-128.
core::ArmNetConfig ArmConfig(float alpha) {
  core::ArmNetConfig config;
  config.num_heads = 4;
  config.neurons_per_head = 32;
  config.embed_dim = 10;
  config.alpha = alpha;
  return config;
}

// --- Clock, statistics, host probes -----------------------------------------

using SteadyTime = std::chrono::steady_clock;
const SteadyTime::time_point kProcessStart = SteadyTime::now();

// Seconds since process start; spans, schedules and phases all use it.
double Now() {
  return std::chrono::duration<double>(SteadyTime::now() - kProcessStart)
      .count();
}

void SleepUntil(double t) {
  const double ahead = t - Now();
  if (ahead > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
  }
}

// Linearly interpolated percentile, p in [0, 1]; NaN for no samples.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

struct Observation {
  double t = 0;  // when the operation started (or was due)
  double value = 0;
};

std::vector<double> Values(const std::vector<Observation>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Observation& s : samples) out.push_back(s.value);
  return out;
}

// Host speed probes. On a shared host the effective speed of a core drifts
// by 15-50% from minute to minute (co-tenants on sibling hyperthreads and in
// the shared last-level cache; CPU time stays equal to wall time), and every
// timing of a run moves with it. A probe times a fixed kernel that belongs
// to the benchmark, not the library, at quiet moments of a run. A metric is
// reported at the reference host speed, durations divided by Factor() and
// rates multiplied by it, when the probe tracks it on this host:
//   compute probe  floating-point loop, as many threads as the workload
//                  keeps busy; set-up time and every train and bulk metric
//   memory probe   pointer chase through 16 MB; serving throughput
// Serving latency follows neither probe consistently (its p99 is mostly the
// 2 ms batch-accumulation timer) and is reported as measured. The raw
// values stay in the report.

// The compute kernel: ~10 ms of pow() over a 256 KB working set.
double ComputeKernelMs() {
  static const std::vector<float> a(1 << 16, 1.0f);
  static const std::vector<float> b(1 << 16, 0.5f);
  const double t0 = Now();
  float acc = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t i = 0; i < a.size(); ++i) {
      acc += std::pow(a[i] * 0.999f + b[i], 0.7f);
    }
  }
  asm volatile("" : : "g"(acc) : "memory");  // keep the loop
  return (Now() - t0) * 1e3;
}

// The memory kernel runs in a child process, so its 16 MB never counts
// toward the benchmark's peak RSS. The child is forked before any thread
// exists and answers each request byte with one timing of a 200,000-step
// pointer chase through a single random cycle of 4M slots (~25 ms).
class MemoryProbeProcess {
 public:
  MemoryProbeProcess() {
    int to_child[2];
    int from_child[2];
    ARMNET_CHECK(pipe(to_child) == 0 && pipe(from_child) == 0);
    pid_ = fork();
    ARMNET_CHECK(pid_ >= 0) << "fork failed";
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      Serve(to_child[0], from_child[1]);
      _exit(0);
    }
    close(to_child[0]);
    close(from_child[1]);
    to_child_ = to_child[1];
    from_child_ = from_child[0];
  }
  ~MemoryProbeProcess() {
    close(to_child_);  // EOF ends the child's loop
    close(from_child_);
    waitpid(pid_, nullptr, 0);
  }
  MemoryProbeProcess(const MemoryProbeProcess&) = delete;
  MemoryProbeProcess& operator=(const MemoryProbeProcess&) = delete;

  double SampleMs() {
    const char request = 1;
    double ms = 0;
    ARMNET_CHECK(write(to_child_, &request, 1) == 1);
    ARMNET_CHECK(read(from_child_, &ms, sizeof(ms)) ==
                 static_cast<ssize_t>(sizeof(ms)));
    return ms;
  }

 private:
  // Builds the cycle on the first request, so the build does not overlap
  // the parent's timed set-up.
  static void Serve(int in, int out) {
    std::vector<uint32_t> next;
    char request = 0;
    while (read(in, &request, 1) == 1) {
      if (next.empty()) {
        next.resize(1u << 22);
        for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
        Rng rng(1);
        for (uint32_t i = next.size() - 1; i > 0; --i) {  // Sattolo: a cycle
          std::swap(next[i], next[static_cast<size_t>(rng.UniformInt(i))]);
        }
      }
      const double t0 = Now();
      uint32_t at = 0;
      for (int i = 0; i < 200000; ++i) at = next[at];
      asm volatile("" : : "g"(at) : "memory");
      const double ms = (Now() - t0) * 1e3;
      if (write(out, &ms, sizeof(ms)) != static_cast<ssize_t>(sizeof(ms))) {
        break;
      }
    }
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

class HostProbe {
 public:
  // `reference_ms` is the kernel's median on the reference host (the 4-core
  // Xeon the baseline was measured on); only the ratio between runs
  // matters.
  HostProbe(std::function<double()> kernel, double reference_ms,
            int threads = 1)
      : kernel_(std::move(kernel)),
        reference_ms_(reference_ms),
        threads_(threads) {}

  // One sample: the kernel on every probe thread at once; the median of
  // their times.
  void Sample() {
    const double t = Now();
    std::vector<double> ms(static_cast<size_t>(threads_));
    std::vector<std::thread> others;
    for (size_t i = 1; i < ms.size(); ++i) {
      others.emplace_back([this, &ms, i] { ms[i] = kernel_(); });
    }
    ms[0] = kernel_();
    for (std::thread& other : others) other.join();
    samples_.push_back({t, Median(std::move(ms))});
  }
  void Sample(int n) {
    for (int i = 0; i < n; ++i) Sample();
  }

  double MedianMs() const { return Median(Values(samples_)); }
  // > 1 when the host ran slower than the reference.
  double Factor() const { return MedianMs() / reference_ms_; }
  // The factor from the samples taken in [t0, t1); the whole run's when
  // there are none.
  double Factor(double t0, double t1) const {
    std::vector<double> ms;
    for (const Observation& s : samples_) {
      if (s.t >= t0 && s.t < t1) ms.push_back(s.value);
    }
    return ms.empty() ? Factor() : Median(std::move(ms)) / reference_ms_;
  }

 private:
  std::function<double()> kernel_;
  double reference_ms_;
  int threads_;
  std::vector<Observation> samples_;  // (time, ms)
};

constexpr double kComputeReferenceMs = 10.0;
constexpr double kMemoryReferenceMs = 25.0;

// The phase [start, start + length) cut into `count` equal windows; the
// median over non-empty windows of each window's p-th percentile. A window
// hit by host CPU steal moves the result by one rank instead of owning the
// whole-run tail. With a probe, each window's value is taken at the
// reference host speed of that window.
double MedianOfWindows(const std::vector<Observation>& samples, double start,
                       double length, int count, double p,
                       const HostProbe* probe = nullptr) {
  std::vector<std::vector<double>> windows(static_cast<size_t>(count));
  for (const Observation& s : samples) {
    int w = static_cast<int>((s.t - start) / length * count);
    w = std::clamp(w, 0, count - 1);
    windows[static_cast<size_t>(w)].push_back(s.value);
  }
  std::vector<double> per_window;
  for (int i = 0; i < count; ++i) {
    std::vector<double>& w = windows[static_cast<size_t>(i)];
    if (w.empty()) continue;
    const double t0 = start + length * i / count;
    const double factor =
        probe ? probe->Factor(t0, t0 + length / count) : 1.0;
    per_window.push_back(Percentile(std::move(w), p) / factor);
  }
  return Median(std::move(per_window));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Aggregate CPU ticks from /proc/stat: steal and the total of the first
// eight columns (user .. steal; guest time is already inside user).
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(Trim(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

// --- Spans -------------------------------------------------------------------

// In-memory span log, written as Chrome trace-event JSON at exit. Disabled
// in untraced runs, where every call returns at once.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int64_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  // Records a finished span over [start, end] (Now() seconds). `parent` 0 is
  // the root; spans of one serving request share `request`.
  void Record(int64_t id, const char* name, double start, double end,
              int64_t parent = 0, int64_t request = -1) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, id, parent, request, ThreadIndex()});
  }

  Status Write(const std::string& path) const {
    JsonWriter w;
    w.BeginObject();
    w.Key("displayTimeUnit").String("ms");
    w.Key("traceEvents").BeginArray();
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      w.BeginObject();
      w.Key("name").String(s.name);
      w.Key("ph").String("X");
      w.Key("pid").Int(1);
      w.Key("tid").Int(s.tid);
      w.Key("ts").Double(s.start * 1e6);
      w.Key("dur").Double((s.end - s.start) * 1e6);
      w.Key("args").BeginObject();
      w.Key("id").Int(s.id);
      w.Key("parent").Int(s.parent);
      if (s.request >= 0) w.Key("request").Int(s.request);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return WriteLines(path, {w.str()});
  }

 private:
  struct SpanRecord {
    const char* name;
    double start;
    double end;
    int64_t id;
    int64_t parent;
    int64_t request;
    int tid;
  };

  static int ThreadIndex() {
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span around one call.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer.NewId()),
        start_(Now()) {}
  ~Span() { tracer_.Record(id_, name_, start_, Now(), parent_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  int64_t parent_;
  int64_t id_;
  double start_;
};

struct TimedCall {
  const char* name;
  std::function<void()> fn;
};

// Wall times in ms, one row per call and one column per round. The calls run
// in rounds, one after another, so host noise lands on all of them alike:
// one untimed round, then at least `min_rounds` rounds and 0.5 s (at most
// 200 rounds). Each timed call is a span.
std::vector<std::vector<double>> TimeRounds(
    Tracer& tracer, int64_t parent, const std::vector<TimedCall>& calls,
    int min_rounds = 3) {
  for (const TimedCall& call : calls) call.fn();
  std::vector<std::vector<double>> ms(calls.size());
  const double begin = Now();
  for (int round = 0;
       round < min_rounds || (Now() - begin < 0.5 && round < 200); ++round) {
    for (size_t i = 0; i < calls.size(); ++i) {
      const int64_t id = tracer.NewId();
      const double t0 = Now();
      calls[i].fn();
      const double t1 = Now();
      tracer.Record(id, calls[i].name, t0, t1, parent);
      ms[i].push_back((t1 - t0) * 1e3);
    }
  }
  return ms;
}

double TimeMs(Tracer& tracer, const char* name, int64_t parent,
              std::function<void()> fn) {
  return Median(TimeRounds(tracer, parent, {{name, std::move(fn)}})[0]);
}

// --- Report ------------------------------------------------------------------

struct Value {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Value> metrics;  // end to end
  std::vector<Value> layers;   // per layer (traced runs)
  std::vector<Value> extra;    // validity data and mechanism counts
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;
  std::vector<std::string> warnings;  // validity, not correctness
  int64_t attempted = 0;
  int64_t failed = 0;

  void Metric(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  // The first value recorded for a layer wins, so what the timed phase
  // measured takes precedence over the replay.
  void Layer(const std::string& name, double v, const std::string& unit) {
    if (!HasLayer(name)) layers.push_back({name, v, unit});
  }
  bool HasLayer(const std::string& name) const {
    for (const Value& existing : layers) {
      if (existing.name == name) return true;
    }
    return false;
  }
  void Extra(const std::string& name, double v) {
    extra.push_back({name, v, ""});
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                          detail.c_str());
  }
  void Warn(const std::string& message) {
    warnings.push_back(message);
    std::fprintf(stderr, "WARNING %s\n", message.c_str());
  }
  bool correct() const {
    for (const auto& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

// --- Data and set-up ---------------------------------------------------------

struct Setup {
  std::string dir;
  std::string state_path;
  std::vector<std::string> field_names;
  std::vector<bool> numerical;
  data::FeatureSpace space;
  data::Dataset train;                             // vocab-mapped first half
  std::vector<std::vector<std::string>> traffic;   // raw second half
  std::vector<std::string> pass_files;             // bulk: kPassFiles inputs
  std::unique_ptr<core::ArmNet> model;
  std::unique_ptr<core::ArmNet> standby;
  std::unique_ptr<core::ArmNet> shadow;
  std::unique_ptr<core::ArmNet> reference;  // eval mode, setup weights
  // Declared last: destroyed (shut down) before the models it points at.
  std::unique_ptr<serve::PredictionService> service;
};

std::string CsvHeader(const std::vector<std::string>& names, bool label) {
  std::vector<std::string> cells;
  if (label) cells.push_back("label");
  cells.insert(cells.end(), names.begin(), names.end());
  return CsvRow(cells);
}

void WriteRows(const std::string& path, const std::vector<std::string>& names,
               const std::vector<std::vector<std::string>>& rows,
               size_t begin, size_t count) {
  std::vector<std::string> lines;
  lines.reserve(count + 1);
  lines.push_back(CsvHeader(names, /*label=*/false));
  for (size_t i = begin; i < begin + count; ++i) {
    lines.push_back(CsvRow(rows[i % rows.size()]));
  }
  const Status written = WriteLines(path, lines);
  ARMNET_CHECK(written.ok()) << written.message();
}

std::unique_ptr<core::ArmNet> NewModel(const Setup& s, const Workload& w,
                                       uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<core::ArmNet>(s.space.schema().num_features(),
                                        s.space.num_fields(),
                                        ArmConfig(w.alpha), rng);
}

std::unique_ptr<core::ArmNet> LoadedModel(const Setup& s, const Workload& w) {
  std::unique_ptr<core::ArmNet> model = NewModel(s, w, /*seed=*/0);
  const Status loaded = nn::LoadState(*model, s.state_path);
  ARMNET_CHECK(loaded.ok()) << loaded.message();
  return model;
}

serve::ServeOptions ServiceOptions(bool churn) {
  serve::ServeOptions options;
  options.num_workers = kServeWorkers;
  options.queue_capacity = kQueueCapacity;
  options.max_batch_size = kMaxBatch;
  options.default_deadline_seconds = kDeadlineSeconds;
  options.shadow.mirror_fraction = churn ? kShadowFraction : 0.0;
  return options;
}

// The serving artifact's drift reference, as the trainer exports it: the
// model's score histogram, here over the first kDriftReferenceRows training
// rows.
void AttachDriftReference(Setup& s) {
  std::vector<int64_t> rows(static_cast<size_t>(
      std::min<int64_t>(kDriftReferenceRows, s.train.size())));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  const std::vector<float> logits = armor::PredictLogits(
      *s.reference, s.train.Subset(rows), /*batch_size=*/512);
  data::DriftReference reference;
  reference.score_histogram.assign(data::kDriftScoreBins, 0);
  for (float logit : logits) {
    if (!std::isfinite(logit)) continue;
    const double score = 1.0 / (1.0 + std::exp(-static_cast<double>(logit)));
    const int bin = std::clamp(static_cast<int>(score * data::kDriftScoreBins),
                               0, data::kDriftScoreBins - 1);
    ++reference.score_histogram[static_cast<size_t>(bin)];
  }
  s.space.set_drift_reference(std::move(reference));
}

std::unique_ptr<Setup> RunSetup(const Workload& w, uint64_t seed,
                                const std::string& dir, Tracer& tracer) {
  Span span(tracer, "setup");
  auto s = std::make_unique<Setup>();
  s->dir = dir;
  s->state_path = dir + "/model.state";

  data::SyntheticSpec spec = data::PresetByName(w.preset);
  spec.num_tuples = kTableRows;
  spec.seed = spec.seed * 1000003 + seed;
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> labels;
  {
    Span gen(tracer, "data.generate", span.id());
    const data::SyntheticDataset synthetic = data::GenerateSynthetic(spec);
    const data::Schema& schema = synthetic.dataset.schema();
    for (const data::FieldSpec& f : schema.fields()) {
      s->field_names.push_back(f.name);
      s->numerical.push_back(f.type == data::FieldType::kNumerical);
    }
    const int m = schema.num_fields();
    cells.resize(static_cast<size_t>(synthetic.dataset.size()));
    for (int64_t r = 0; r < synthetic.dataset.size(); ++r) {
      std::vector<std::string>& row = cells[static_cast<size_t>(r)];
      row.reserve(static_cast<size_t>(m));
      for (int f = 0; f < m; ++f) {
        if (s->numerical[static_cast<size_t>(f)]) {
          row.push_back(
              StrFormat("%.6g", synthetic.dataset.value_at(r, f)));
        } else {
          row.push_back(StrFormat(
              "v%lld", static_cast<long long>(synthetic.dataset.id_at(r, f) -
                                              schema.offset(f))));
        }
      }
      labels.push_back(synthetic.dataset.label_at(r) > 0.5f ? "1" : "0");
    }
  }
  const size_t half = cells.size() / 2;
  {
    Span csv(tracer, "data.csv_vocab", span.id());
    std::vector<std::string> lines;
    lines.reserve(half + 1);
    lines.push_back(CsvHeader(s->field_names, /*label=*/true));
    for (size_t r = 0; r < half; ++r) {
      lines.push_back(labels[r] + "," + CsvRow(cells[r]));
    }
    const std::string train_csv = dir + "/train.csv";
    const Status written = WriteLines(train_csv, lines);
    ARMNET_CHECK(written.ok()) << written.message();
    StatusOr<data::Dataset> loaded = data::LoadCsvWithVocab(
        train_csv, s->numerical, data::LoadOptions{}, nullptr, ',',
        &s->space);
    ARMNET_CHECK(loaded.ok()) << loaded.status().message();
    s->train = std::move(loaded).value();
    s->traffic.assign(std::make_move_iterator(cells.begin() +
                                              static_cast<int64_t>(half)),
                      std::make_move_iterator(cells.end()));
  }
  {
    Span build(tracer, "model.build_save", span.id());
    s->model = NewModel(*s, w, seed);
    const Status saved = nn::SaveState(*s->model, s->state_path);
    ARMNET_CHECK(saved.ok()) << saved.message();
    s->reference = LoadedModel(*s, w);
    s->reference->SetTraining(false);
  }
  if (w.kind == Kind::kTrain) return s;

  {
    Span start(tracer, "serve.start", span.id());
    if (w.kind == Kind::kServe) AttachDriftReference(*s);
    if (w.churn) {
      s->standby = NewModel(*s, w, seed + 1);
      s->shadow = NewModel(*s, w, seed + 2);
    }
    s->service = std::make_unique<serve::PredictionService>(
        s->model.get(), s->space, ServiceOptions(w.churn), nullptr, nullptr,
        s->standby.get(), s->shadow.get());
    if (w.churn) {
      const Status shadowed = s->service->LoadShadowModel(s->state_path);
      ARMNET_CHECK(shadowed.ok()) << shadowed.message();
    }
  }
  if (w.kind == Kind::kBulk) {
    Span files(tracer, "data.pass_files", span.id());
    for (int i = 0; i < kPassFiles; ++i) {
      const std::string path = StrFormat("%s/pass%d.csv", dir.c_str(), i);
      WriteRows(path, s->field_names, s->traffic,
                static_cast<size_t>(i) * kPassRows, kPassRows);
      s->pass_files.push_back(path);
    }
  }
  return s;
}

// --- Correctness helpers -----------------------------------------------------

data::Batch MapBatch(const data::FeatureSpace& space,
                     const std::vector<std::vector<std::string>>& rows) {
  data::Batch batch;
  batch.batch_size = static_cast<int64_t>(rows.size());
  batch.num_fields = space.num_fields();
  data::MappedRow mapped;
  for (const std::vector<std::string>& cells : rows) {
    const Status status = space.MapRow(cells, &mapped);
    ARMNET_CHECK(status.ok()) << status.message();
    batch.ids.insert(batch.ids.end(), mapped.ids.begin(), mapped.ids.end());
    batch.values.insert(batch.values.end(), mapped.values.begin(),
                        mapped.values.end());
  }
  batch.labels.assign(rows.size(), 0.0f);
  return batch;
}

// One served logit to compare against the interpreted batch-1 forward.
struct SpotCheck {
  std::vector<std::string> cells;
  float served = 0;
  bool answered = false;
};

// Compares each answered spot check with the interpreted batch-1 forward of
// the same mapped row on the reference model.
void RunSpotChecks(const Setup& s, const std::vector<SpotCheck>& spots,
                   Report& report) {
  int64_t compared = 0;
  int64_t bit_exact = 0;
  double worst = 0;
  NoGradGuard no_grad;
  Rng rng(0);
  for (const SpotCheck& spot : spots) {
    if (!spot.answered) continue;
    const data::Batch batch = MapBatch(s.space, {spot.cells});
    const float expected = s.reference->Forward(batch, rng).value()[0];
    const double diff = std::fabs(static_cast<double>(expected) - spot.served);
    worst = std::max(worst, diff);
    if (std::memcmp(&expected, &spot.served, sizeof(float)) == 0) ++bit_exact;
    ++compared;
  }
  report.Extra("spot.compared", static_cast<double>(compared));
  report.Extra("spot.bit_exact", static_cast<double>(bit_exact));
  report.Extra("spot.max_abs_diff", worst);
  report.Check("spot_check_vs_interpreted",
               compared > 0 && worst <= kSpotTolerance,
               StrFormat("%lld compared, %lld bit-exact, max |diff| %.3g",
                         static_cast<long long>(compared),
                         static_cast<long long>(bit_exact), worst));
}

void CheckServiceAfterShutdown(const Workload& w, Setup& s, Report& report) {
  s.service->Shutdown();
  const serve::ServeCounters c = s.service->counters();
  report.Check("accounting_identity", c.submitted == c.Terminal(),
               StrFormat("submitted %lld, terminal %lld",
                         static_cast<long long>(c.submitted),
                         static_cast<long long>(c.Terminal())));
  if (w.kind == Kind::kServe) {
    report.Check("no_drift_alert", c.drift_alerts == 0,
                 StrFormat("%lld drift alerts",
                           static_cast<long long>(c.drift_alerts)));
  }
  if (w.churn) {
    const serve::ShadowStats shadow = s.service->ShadowSnapshot();
    report.Extra("serve.shadow_rows",
                 static_cast<double>(shadow.mirrored_rows));
    report.Check("shadow_matches_primary",
                 shadow.mirrored_rows > 0 && shadow.failed_forwards == 0 &&
                     shadow.mean_abs_delta <= kSpotTolerance,
                 StrFormat("%lld rows mirrored, mean |dlogit| %.3g",
                           static_cast<long long>(shadow.mirrored_rows),
                           shadow.mean_abs_delta));
    report.Check("reloads_ok", c.reloads_ok > 0 && c.reloads_rejected == 0,
                 StrFormat("%lld ok, %lld rejected",
                           static_cast<long long>(c.reloads_ok),
                           static_cast<long long>(c.reloads_rejected)));
  }
}

int64_t PlanCompiles(const serve::PredictionService& service) {
  for (const prof::CounterStats& c : service.PlanCounterSnapshot()) {
    if (c.name == "plan/compiles") return c.count;
  }
  return 0;
}

// --- Timed phases ------------------------------------------------------------

struct TimedPhase {
  double start = 0;
  double length = 0;
  std::vector<Observation> latency_ms;  // per operation
  double throughput = 0;  // operations (tuples, rows, requests) per second
  double mean_batch = 0;
  HostProbe probe{ComputeKernelMs, kComputeReferenceMs};
  bool adjust_latency = true;  // false for serving (see HostProbe)
  int windows = kLoopWindows;
};

// Training: closed loop, one trainer thread.
TimedPhase RunTrain(Setup& s, uint64_t seed, double seconds, Tracer& tracer,
                    Report& report) {
  core::ArmNet& model = *s.model;
  model.SetTraining(true);
  optim::Adam optimizer(model.Parameters(), kLearningRate);
  Rng dropout_rng(seed);
  const int64_t n = s.train.size();
  int64_t cursor = 0;
  data::Batch batch;
  auto next_batch = [&] {
    std::vector<int64_t> rows(static_cast<size_t>(kTrainBatch));
    for (int64_t& r : rows) r = cursor++ % n;
    s.train.Gather(rows, &batch);
  };
  for (int i = 0; i < kTrainWarmupSteps; ++i) {
    next_batch();
    Variable loss = ag::BceWithLogits(model.Forward(batch, dropout_rng),
                                      batch.LabelsTensor());
    loss.Backward();
    optimizer.Step();
    optimizer.ZeroGrad();
  }

  TimedPhase phase;
  std::vector<double> forward_ms;
  std::vector<double> backward_ms;
  std::vector<double> step_ms;
  phase.start = Now();
  while (Now() - phase.start < seconds) {
    next_batch();
    phase.probe.Sample();
    const int64_t id = tracer.NewId();
    const double t0 = Now();
    Variable loss = ag::BceWithLogits(model.Forward(batch, dropout_rng),
                                      batch.LabelsTensor());
    const float loss_value = loss.value().item();
    const double t1 = Now();
    loss.Backward();
    const double t2 = Now();
    optimizer.Step();
    optimizer.ZeroGrad();
    const double t3 = Now();
    tracer.Record(tracer.NewId(), "train.forward", t0, t1, id);
    tracer.Record(tracer.NewId(), "autograd.backward", t1, t2, id);
    tracer.Record(tracer.NewId(), "optim.step", t2, t3, id);
    tracer.Record(id, "train.step", t0, t3);
    phase.latency_ms.push_back({t0, (t3 - t0) * 1e3});
    forward_ms.push_back((t1 - t0) * 1e3);
    backward_ms.push_back((t2 - t1) * 1e3);
    step_ms.push_back((t3 - t2) * 1e3);
    ++report.attempted;
    if (!std::isfinite(loss_value)) ++report.failed;
  }
  phase.length = Now() - phase.start;
  const double median_step_s = Median(Values(phase.latency_ms)) / 1e3;
  phase.throughput = static_cast<double>(kTrainBatch) / median_step_s;
  phase.mean_batch = static_cast<double>(kTrainBatch);
  report.Check("train_finite_loss", report.failed == 0,
               StrFormat("%lld of %lld steps had a non-finite loss",
                         static_cast<long long>(report.failed),
                         static_cast<long long>(report.attempted)));
  report.Layer("train.forward_ms", Median(forward_ms), "ms");
  report.Layer("autograd.backward_ms", Median(backward_ms), "ms");
  report.Layer("optim.step_ms", Median(step_ms), "ms");
  return phase;
}

// Bulk scoring: PredictTable passes, one after another.
TimedPhase RunBulk(Setup& s, uint64_t seed, double seconds, Tracer& tracer,
                   Report& report) {
  serve::PredictionService& service = *s.service;
  serve::PredictTableOptions options;
  options.wave_size = kWaveSize;
  options.deadline_seconds = kDeadlineSeconds;
  {
    // Warm-up pass: compiles the plans for the batch sizes the waves form.
    Span warm(tracer, "bulk.warmup");
    serve::PredictTableReport unused;
    const Status st = serve::PredictTable(service, s.pass_files[0],
                                          s.dir + "/warm.out.csv", options,
                                          &unused);
    ARMNET_CHECK(st.ok()) << st.message();
  }
  const serve::ServeCounters before = service.counters();
  const int64_t compiles_before = PlanCompiles(service);

  TimedPhase phase;
  phase.probe =
      HostProbe(ComputeKernelMs, kComputeReferenceMs, kServeWorkers);
  std::vector<double> rows_per_s;
  struct PassOutput {
    int file;
    std::string path;
    int64_t rows_read;
  };
  std::vector<PassOutput> outputs;
  bool rows_all_ok = true;
  phase.start = Now();
  while (Now() - phase.start < seconds) {
    const int file = static_cast<int>(outputs.size()) % kPassFiles;
    const std::string out =
        StrFormat("%s/pass%zu.out.csv", s.dir.c_str(), outputs.size());
    serve::PredictTableReport pass;
    phase.probe.Sample(2);
    const int64_t id = tracer.NewId();
    const double t0 = Now();
    const Status st = serve::PredictTable(
        service, s.pass_files[static_cast<size_t>(file)], out, options, &pass);
    const double t1 = Now();
    tracer.Record(id, "serve.predict_table", t0, t1);
    ARMNET_CHECK(st.ok()) << st.message();
    phase.latency_ms.push_back({t0, (t1 - t0) * 1e3});
    rows_per_s.push_back(static_cast<double>(pass.rows_ok) / (t1 - t0));
    report.attempted += pass.rows_read;
    report.failed += pass.rows_read - pass.rows_ok + pass.rows_degraded;
    if (pass.rows_ok != pass.rows_read || pass.rows_degraded != 0) {
      rows_all_ok = false;
    }
    outputs.push_back({file, out, pass.rows_read});
  }
  phase.length = Now() - phase.start;
  phase.throughput = Median(rows_per_s);
  const serve::ServeCounters after = service.counters();
  const int64_t batches = after.batches - before.batches;
  phase.mean_batch =
      batches > 0 ? static_cast<double>(after.completed_ok -
                                        before.completed_ok) /
                        static_cast<double>(batches)
                  : 0.0;
  report.Layer("plan.compiles",
               static_cast<double>(PlanCompiles(service) - compiles_before),
               "count");
  report.Check("bulk_rows_ok", rows_all_ok,
               "every pass answered every row from the model");

  // Output files: one row per input row, finite logits, and 1 in 64 rows
  // compared with the interpreted forward. The rows are drawn at random:
  // waves split into aligned batches of 64, and every 64th row would always
  // be a batch's first.
  Rng spot_rng(seed);
  bool shape_ok = true;
  bool finite = true;
  std::vector<SpotCheck> spots;
  for (const PassOutput& pass : outputs) {
    StatusOr<CsvTable> table = ReadCsv(pass.path);
    ARMNET_CHECK(table.ok()) << table.status().message();
    const auto& rows = table.value().rows;
    if (static_cast<int64_t>(rows.size()) != pass.rows_read) {
      shape_ok = false;
      continue;
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      float logit = 0;
      if (rows[r].empty() || !ParseFloat(rows[r][0], &logit)) {
        finite = false;
        continue;
      }
      if (spot_rng.UniformInt(kSpotCheckEvery) == 0) {
        SpotCheck spot;
        spot.cells = s.traffic[static_cast<size_t>(pass.file) *
                                   static_cast<size_t>(kPassRows) +
                               r];
        spot.served = logit;
        spot.answered = true;
        spots.push_back(std::move(spot));
      }
    }
  }
  report.Check("bulk_output_rows", shape_ok,
               "each output file has one row per input row");
  report.Check("finite_logits", finite, "every scored row has a finite logit");
  RunSpotChecks(s, spots, report);
  return phase;
}

// Request cells: the next traffic row, with an unseen categorical token in
// kUnseenTokenRate of requests.
class RequestSource {
 public:
  RequestSource(const Setup& s, uint64_t seed) : s_(s), rng_(seed) {
    cursor_ = static_cast<size_t>(rng_.UniformInt(
        static_cast<int64_t>(s.traffic.size())));
    for (size_t f = 0; f < s.numerical.size(); ++f) {
      if (!s.numerical[f]) categorical_.push_back(f);
    }
  }

  std::vector<std::string> Next() {
    std::vector<std::string> cells = s_.traffic[cursor_++ % s_.traffic.size()];
    if (!categorical_.empty() && rng_.Bernoulli(kUnseenTokenRate)) {
      const size_t f = categorical_[static_cast<size_t>(
          rng_.UniformInt(static_cast<int64_t>(categorical_.size())))];
      cells[f] = StrFormat("unseen-%zu", cursor_);
    }
    return cells;
  }

  double ExpGap(double rate) { return -std::log(1.0 - rng_.Uniform()) / rate; }

 private:
  const Setup& s_;
  Rng rng_;
  size_t cursor_ = 0;
  std::vector<size_t> categorical_;
};

struct OpenLoopRequest {
  double due = 0;
  double submit_start = 0;
  double submit_end = 0;
  std::shared_ptr<serve::PendingPrediction> ticket;
  int64_t spot = -1;  // index into the spot-check list
};

// Poisson arrivals at `rate` for `seconds`. The generator sleeps only when
// ahead of the schedule, so a stall delays later submissions instead of
// thinning the offered load, and each request is timed from its due time.
std::vector<OpenLoopRequest> RunOpenLoop(serve::PredictionService& service,
                                         RequestSource& source, double rate,
                                         double seconds, int64_t* counter,
                                         std::vector<SpotCheck>* spots) {
  std::vector<OpenLoopRequest> requests;
  requests.reserve(static_cast<size_t>(rate * seconds * 1.2) + 16);
  const double start = Now();
  double due = start;
  while (true) {
    due += source.ExpGap(rate);
    if (due - start >= seconds) break;
    SleepUntil(due);
    OpenLoopRequest r;
    r.due = due;
    std::vector<std::string> cells = source.Next();
    if (spots != nullptr && (*counter)++ % kSpotCheckEvery == 0) {
      r.spot = static_cast<int64_t>(spots->size());
      spots->push_back({cells, 0, false});
    }
    r.submit_start = Now();
    r.ticket = service.Submit(cells, kDeadlineSeconds);
    r.submit_end = Now();
    requests.push_back(std::move(r));
  }
  return requests;
}

// Outcome of one served request: true when the model answered (kOk, not
// degraded) with a finite logit.
bool Answered(const serve::PredictResult& result) {
  return result.code == serve::ServeCode::kOk && !result.degraded &&
         std::isfinite(result.logit);
}

struct ClosedLoopResult {
  int64_t answered = 0;  // by the model, with a finite logit
  int64_t failed = 0;
  double seconds = 0;    // until the last request completed
};

// Closed loop holding kSaturationInFlight requests in flight, below the
// queue capacity so none is refused, for `seconds`; then drains.
ClosedLoopResult RunClosedLoop(serve::PredictionService& service,
                               RequestSource& source, double seconds,
                               int64_t* counter,
                               std::vector<SpotCheck>* spots,
                               Tracer* tracer) {
  struct InFlight {
    std::shared_ptr<serve::PendingPrediction> ticket;
    int64_t spot;
  };
  std::deque<InFlight> in_flight;
  ClosedLoopResult out;
  auto settle = [&] {
    const InFlight& front = in_flight.front();
    const serve::PredictResult& result = front.ticket->Wait();
    if (Answered(result)) {
      ++out.answered;
    } else {
      ++out.failed;
    }
    if (front.spot >= 0) {
      SpotCheck& spot = (*spots)[static_cast<size_t>(front.spot)];
      spot.served = result.logit;
      spot.answered = Answered(result);
    }
    in_flight.pop_front();
  };
  const int64_t id = tracer != nullptr ? tracer->NewId() : 0;
  const double start = Now();
  while (Now() - start < seconds) {
    if (in_flight.size() >= kSaturationInFlight) settle();
    std::vector<std::string> cells = source.Next();
    int64_t spot = -1;
    if (spots != nullptr && (*counter)++ % kSpotCheckEvery == 0) {
      spot = static_cast<int64_t>(spots->size());
      spots->push_back({cells, 0, false});
    }
    in_flight.push_back({service.Submit(cells, kDeadlineSeconds), spot});
  }
  while (!in_flight.empty()) settle();
  out.seconds = Now() - start;
  if (tracer != nullptr) {
    tracer->Record(id, "serve.saturation", start, start + out.seconds);
  }
  return out;
}

// Online serving: an open-loop nominal phase, then closed-loop saturation.
TimedPhase RunServe(const Workload& w, Setup& s, uint64_t seed,
                    double seconds, MemoryProbeProcess& memory,
                    Tracer& tracer, Report& report) {
  serve::PredictionService& service = *s.service;
  RequestSource source(s, seed * 7919 + 17);
  int64_t counter = 0;
  std::vector<SpotCheck> spots;

  {
    // Both traffic shapes, so the batch sizes the timed phases form already
    // have compiled plans (and every churn reload restages about the same
    // set).
    Span warm(tracer, "serve.warmup");
    for (OpenLoopRequest& r :
         RunOpenLoop(service, source, kNominalRps, kWarmupSeconds, &counter,
                     nullptr)) {
      r.ticket->Wait();
    }
    RunClosedLoop(service, source, kWarmupSaturationSeconds, &counter,
                  nullptr, nullptr);
  }
  const int64_t compiles_before = PlanCompiles(service);
  // The memory probe samples the idle service: here, before the reloader
  // starts, and after the saturation phase drains.
  TimedPhase phase;
  phase.probe = HostProbe([&memory] { return memory.SampleMs(); },
                          kMemoryReferenceMs);
  phase.probe.Sample(5);
  phase.adjust_latency = false;
  phase.windows = kServeWindows;

  // Reloader: ReloadModel on the same weights every kReloadPeriodSeconds.
  std::atomic<bool> stop{false};
  std::vector<double> reload_ms;
  std::thread reloader;
  if (w.churn) {
    reloader = std::thread([&] {
      double next = Now();
      while (!stop.load()) {
        const int64_t id = tracer.NewId();
        const double t0 = Now();
        const Status st = service.ReloadModel(s.state_path);
        const double t1 = Now();
        tracer.Record(id, "serve.reload", t0, t1);
        ARMNET_CHECK(st.ok()) << st.message();
        reload_ms.push_back((t1 - t0) * 1e3);
        next += kReloadPeriodSeconds;
        while (!stop.load() && Now() < next) {
          SleepUntil(std::min(next, Now() + 0.01));
        }
      }
    });
  }

  // Nominal phase: open loop at kNominalRps.
  const double nominal_seconds = seconds * kNominalShare;
  const serve::ServeCounters nominal_before = service.counters();
  phase.start = Now();
  std::vector<OpenLoopRequest> nominal = RunOpenLoop(
      service, source, kNominalRps, nominal_seconds, &counter, &spots);
  phase.length = nominal_seconds;
  std::vector<double> lateness_ms;
  std::vector<double> submit_us;
  int64_t request_id = 0;
  for (const OpenLoopRequest& r : nominal) {
    const serve::PredictResult& result = r.ticket->Wait();
    const double done = r.submit_start + result.latency_seconds;
    ++report.attempted;
    if (!Answered(result)) {
      ++report.failed;
    } else {
      phase.latency_ms.push_back({r.due, (done - r.due) * 1e3});
    }
    if (r.spot >= 0) {
      SpotCheck& spot = spots[static_cast<size_t>(r.spot)];
      spot.served = result.logit;
      spot.answered = Answered(result);
    }
    lateness_ms.push_back((r.submit_start - r.due) * 1e3);
    submit_us.push_back((r.submit_end - r.submit_start) * 1e6);
    if (tracer.enabled()) {
      const int64_t id = tracer.NewId();
      tracer.Record(id, "request", r.due, done, 0, request_id);
      tracer.Record(tracer.NewId(), "submit", r.submit_start, r.submit_end,
                    id, request_id);
    }
    ++request_id;
  }
  const serve::ServeCounters nominal_after = service.counters();
  const int64_t batches = nominal_after.batches - nominal_before.batches;
  phase.mean_batch =
      batches > 0 ? static_cast<double>(nominal_after.completed_ok -
                                        nominal_before.completed_ok) /
                        static_cast<double>(batches)
                  : 0.0;

  // Saturation phase.
  const ClosedLoopResult saturation =
      RunClosedLoop(service, source, seconds - nominal_seconds, &counter,
                    &spots, &tracer);
  report.attempted += saturation.answered + saturation.failed;
  report.failed += saturation.failed;
  phase.throughput =
      static_cast<double>(saturation.answered) / saturation.seconds;

  stop.store(true);
  if (reloader.joinable()) reloader.join();
  phase.probe.Sample(5);

  report.Extra("loadgen.late_p99_ms", Percentile(lateness_ms, 0.99));
  report.Layer("plan.compiles",
               static_cast<double>(PlanCompiles(service) - compiles_before),
               "count");
  report.Layer("serve.submit_us", Median(submit_us), "us");
  if (w.churn) {
    report.Extra("serve.reloads", static_cast<double>(reload_ms.size()));
    report.Layer("serve.reload_ms", Median(reload_ms), "ms");
  }
  report.Check("requests_answered", report.failed == 0,
               StrFormat("%lld of %lld requests not answered by the model "
                         "with a finite logit",
                         static_cast<long long>(report.failed),
                         static_cast<long long>(report.attempted)));
  RunSpotChecks(s, spots, report);
  return phase;
}

// --- Per-layer replay (traced runs) ------------------------------------------

template <typename T>
T* FindModule(nn::Module& root) {
  for (nn::Module* m : root.SelfAndDescendants()) {
    if (auto* found = dynamic_cast<T*>(m)) return found;
  }
  return nullptr;
}

// The ARM module's [B, K, o, m] gate scores, recomputed with tensor ops from
// its parameters (bilinear, queries, values, temperature).
Tensor RecomputeScores(const core::ArmModule& arm, const Tensor& embeddings) {
  const std::vector<Variable> params = arm.Parameters();
  ARMNET_CHECK_EQ(params.size(), 4u) << "expected a bilinear-gated ARM module";
  const int64_t b = embeddings.dim(0);
  const Tensor e = embeddings.Reshape(
      Shape({b, 1, embeddings.dim(1), embeddings.dim(2)}));
  const Tensor projected =
      tmath::MatMul(e, tmath::Transpose(params[0].value(), -2, -1));
  const Tensor scores = tmath::Transpose(
      tmath::MatMul(projected, tmath::Transpose(params[1].value(), -2, -1)),
      -2, -1);
  return tmath::Mul(scores, params[3].value());
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

void ReplayLayers(const Workload& w, Setup& s, int64_t batch_rows,
                  Tracer& tracer, Report& report) {
  Span replay(tracer, "replay");
  const int64_t parent = replay.id();
  const int m = s.space.num_fields();
  data::Batch batch;
  if (w.kind == Kind::kTrain) {
    std::vector<int64_t> rows(static_cast<size_t>(batch_rows));
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
    s.train.Gather(rows, &batch);
  } else {
    batch = MapBatch(s.space,
                     {s.traffic.begin(),
                      s.traffic.begin() + static_cast<int64_t>(batch_rows)});
  }

  core::ArmNet& model = *s.reference;
  auto* embedding = FindModule<models::FeaturesEmbedding>(model);
  auto* arm = FindModule<core::ArmModule>(model);
  auto* norm = FindModule<nn::BatchNorm1d>(model);
  auto* mlp = FindModule<nn::Mlp>(model);
  ARMNET_CHECK(embedding && arm && norm && mlp);
  Rng rng(0);

  // Forward layers, chained as ArmNet::Forward chains them.
  {
    NoGradGuard no_grad;
    Variable emb;
    core::ArmModule::Output arm_out;
    Variable normed;
    Variable head;
    Variable full;
    Tensor scores;
    Tensor gates;
    const std::vector<std::vector<double>> ms = TimeRounds(
        tracer, parent,
        {{"nn.embed", [&] { emb = embedding->Forward(batch); }},
         {"core.arm", [&] { arm_out = arm->Forward(emb); }},
         {"nn.norm",
          [&] {
            normed = norm->Forward(
                ag::Reshape(arm_out.cross_features, Shape({batch_rows, -1})));
          }},
         {"nn.mlp", [&] { head = mlp->Forward(normed, rng); }},
         {"model.forward", [&] { full = model.Forward(batch, rng); }},
         {"tensor.entmax",
          [&] {
            if (!scores.defined()) {
              scores = RecomputeScores(*arm, emb.value());
              gates = Tensor(scores.shape());
            }
            tmath::EntmaxLastDimOut(scores, w.alpha, gates);
          }}},
        /*min_rounds=*/5);
    report.Check("entmax_replay_bit_equal",
                 BitEqual(gates, arm_out.gates.value()),
                 "recomputed gates equal ArmModule::Output::gates");
    report.Check("layer_chain_bit_equal",
                 BitEqual(head.value().Reshape(Shape({batch_rows})),
                          full.value()),
                 "embed -> arm -> norm -> mlp equals model.Forward");
    // Coverage per round (the five calls of a round run back to back), then
    // the median over rounds.
    std::vector<double> coverage;
    for (size_t r = 0; r < ms[4].size(); ++r) {
      coverage.push_back((ms[0][r] + ms[1][r] + ms[2][r] + ms[3][r]) /
                         ms[4][r]);
    }
    const double covered = Median(coverage);
    report.Layer("nn.embed_ms", Median(ms[0]), "ms");
    report.Layer("core.arm_ms", Median(ms[1]), "ms");
    report.Layer("nn.norm_ms", Median(ms[2]), "ms");
    report.Layer("nn.mlp_ms", Median(ms[3]), "ms");
    report.Layer("tensor.entmax_ms", Median(ms[5]), "ms");
    report.Layer("fwd.coverage", covered, "ratio");
    if (covered < 0.9 || covered > 1.1) {
      report.Warn(StrFormat("layers sum to %.3f of model.Forward; the "
                            "per-layer times of this run are suspect",
                            covered));
    }
  }

  // Compiled plan against the interpreted forward of the same batch.
  {
    plan::CompiledPredictor predictor(&model);
    ARMNET_CHECK(predictor.Warm(batch_rows, m).ok());
    std::vector<float> compiled;
    TensorPool pool;
    Variable interpreted;
    const std::vector<std::vector<double>> ms = TimeRounds(
        tracer, parent,
        {{"plan.compile",
          [&] {
            plan::CompiledPredictor fresh(&model);
            const Status warmed = fresh.Warm(batch_rows, m);
            ARMNET_CHECK(warmed.ok()) << warmed.message();
          }},
         {"plan.run",
          [&] { ARMNET_CHECK(predictor.TryRun(batch, &compiled)); }},
         {"plan.interp", [&] {
            NoGradGuard no_grad;
            ScopedTensorPool scoped(pool);
            interpreted = model.Forward(batch, rng);
          }}});
    double worst = 0;
    for (size_t i = 0; i < compiled.size(); ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(compiled[i]) -
                                        interpreted.value()[static_cast<int64_t>(i)]));
    }
    report.Extra("plan.bit_exact",
                 BitEqual(Tensor::FromVector(Shape({batch_rows}), compiled),
                          interpreted.value())
                     ? 1.0
                     : 0.0);
    report.Check("plan_matches_interpreter", worst <= kSpotTolerance,
                 StrFormat("max |compiled - interpreted| %.3g", worst));
    report.Layer("plan.compile_ms", Median(ms[0]), "ms");
    report.Layer("plan.run_ms", Median(ms[1]), "ms");
    report.Layer("plan.interp_ms", Median(ms[2]), "ms");
  }

  // Training step at this batch size (the train workload measured its own).
  if (!report.HasLayer("train.forward_ms")) {
    std::unique_ptr<core::ArmNet> trainee = LoadedModel(s, w);
    trainee->SetTraining(true);
    optim::Adam optimizer(trainee->Parameters(), kLearningRate);
    Variable loss;
    const std::vector<std::vector<double>> ms = TimeRounds(
        tracer, parent,
        {{"train.forward",
          [&] {
            loss = ag::BceWithLogits(trainee->Forward(batch, rng),
                                     batch.LabelsTensor());
          }},
         {"autograd.backward", [&] { loss.Backward(); }},
         {"optim.step", [&] {
            optimizer.Step();
            optimizer.ZeroGrad();
          }}});
    report.Layer("train.forward_ms", Median(ms[0]), "ms");
    report.Layer("autograd.backward_ms", Median(ms[1]), "ms");
    report.Layer("optim.step_ms", Median(ms[2]), "ms");
  }

  // State loading, feature mapping, CSV parsing.
  {
    std::unique_ptr<core::ArmNet> spare = NewModel(s, w, /*seed=*/0);
    report.Layer("nn.load_state_ms",
                 TimeMs(tracer, "nn.load_state", parent, [&] {
                   ARMNET_CHECK(nn::LoadState(*spare, s.state_path).ok());
                 }),
                 "ms");
    std::vector<double> map_us;
    data::MappedRow mapped;
    const size_t rows =
        std::min(s.traffic.size(), static_cast<size_t>(kMapReplayRows));
    for (size_t i = 0; i < rows; ++i) {
      const double t0 = Now();
      const Status st = s.space.MapRow(s.traffic[i], &mapped);
      map_us.push_back((Now() - t0) * 1e6);
      ARMNET_CHECK(st.ok()) << st.message();
    }
    report.Layer("data.map_us", Median(map_us), "us");
    const std::string pass = s.dir + "/replay_pass.csv";
    WriteRows(pass, s.field_names, s.traffic, 0, kPassRows);
    report.Layer("util.csv_read_ms",
                 TimeMs(tracer, "util.csv_read", parent, [&] {
                   ARMNET_CHECK(ReadCsv(pass).ok());
                 }),
                 "ms");
  }

  // Serving calls the timed phase did not exercise, on a replay service
  // with a warm standby: Submit (waves of kMaxBatch), then ReloadModel.
  {
    std::unique_ptr<core::ArmNet> primary = LoadedModel(s, w);
    std::unique_ptr<core::ArmNet> standby = LoadedModel(s, w);
    serve::PredictionService service(primary.get(), s.space,
                                     ServiceOptions(/*churn=*/false), nullptr,
                                     nullptr, standby.get());
    std::vector<double> submit_us;
    std::vector<std::shared_ptr<serve::PendingPrediction>> wave;
    for (size_t i = 0; i < 8 * static_cast<size_t>(kMaxBatch); ++i) {
      const double t0 = Now();
      wave.push_back(service.Submit(s.traffic[i % s.traffic.size()],
                                    kDeadlineSeconds));
      submit_us.push_back((Now() - t0) * 1e6);
      if (wave.size() == static_cast<size_t>(kMaxBatch)) {
        for (const auto& ticket : wave) ticket->Wait();
        wave.clear();
      }
    }
    std::vector<double> reload_ms;
    for (int i = 0; i < 3; ++i) {
      const int64_t id = tracer.NewId();
      const double t0 = Now();
      ARMNET_CHECK(service.ReloadModel(s.state_path).ok());
      const double t1 = Now();
      tracer.Record(id, "serve.reload", t0, t1, parent);
      reload_ms.push_back((t1 - t0) * 1e3);
    }
    service.Shutdown();
    const serve::ServeCounters c = service.counters();
    report.Check("replay_accounting_identity", c.submitted == c.Terminal(),
                 "replay service: submitted == terminal");
    report.Layer("serve.submit_us", Median(submit_us), "us");
    report.Layer("serve.reload_ms", Median(reload_ms), "ms");
    report.Layer("plan.compiles", static_cast<double>(PlanCompiles(service)),
                 "count");
  }
}

// --- Output ------------------------------------------------------------------

void WriteValues(JsonWriter& w, const char* key,
                 const std::vector<Value>& values) {
  w.Key(key).BeginObject();
  for (const Value& v : values) {
    w.Key(v.name).BeginObject();
    w.Key("value").Double(v.value);
    w.Key("unit").String(v.unit);
    w.EndObject();
  }
  w.EndObject();
}

std::string ReportJson(const Workload& wl, uint64_t seed, double seconds,
                       bool traced, const std::vector<double>& setup_samples,
                       const Report& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("armbench/1");
  w.Key("workload").String(wl.name);
  w.Key("seed").Int(static_cast<int64_t>(seed));
  w.Key("seconds").Double(seconds);
  w.Key("traced").Bool(traced);
  w.Key("env").BeginObject();
  w.Key("nproc").Int(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu").String(CpuModel());
  w.Key("backend").String(BackendName(GetBackend()));
  w.EndObject();
  w.Key("correct").Bool(report.correct());
  w.Key("attempted").Int(report.attempted);
  w.Key("failed").Int(report.failed);
  w.Key("setup_s_samples").BeginArray();
  for (double v : setup_samples) w.Double(v);
  w.EndArray();
  WriteValues(w, "metrics", report.metrics);
  WriteValues(w, "layers", report.layers);
  w.Key("extra").BeginObject();
  for (const Value& v : report.extra) w.Key(v.name).Double(v.value);
  w.EndObject();
  w.Key("checks").BeginArray();
  for (const auto& c : report.checks) {
    w.BeginObject();
    w.Key("name").String(c.name);
    w.Key("ok").Bool(c.ok);
    w.Key("detail").String(c.detail);
    w.EndObject();
  }
  w.EndArray();
  w.Key("warnings").BeginArray();
  for (const std::string& message : report.warnings) w.String(message);
  w.EndArray();
  w.EndObject();
  return w.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "armbench: %s\nusage: armbench --workload=<name> --seed=<n> "
               "--seconds=<s> --tmpdir=<dir> --json=<report.json> "
               "[--trace=<trace.json>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = FlagValue(argc, argv, "workload", "");
  const int64_t seed_flag = FlagInt(argc, argv, "seed", -1);
  const double seconds = FlagDouble(argc, argv, "seconds", 0);
  const std::string tmpdir = FlagValue(argc, argv, "tmpdir", "");
  const std::string json_path = FlagValue(argc, argv, "json", "");
  const std::string trace_path = FlagValue(argc, argv, "trace", "");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (seed_flag < 0) return Usage("--seed must be a non-negative integer");
  if (!(seconds > 0 && seconds <= 600)) return Usage("--seconds out of range");
  if (tmpdir.empty() || json_path.empty()) {
    return Usage("--tmpdir and --json are required");
  }
  const uint64_t seed = static_cast<uint64_t>(seed_flag);
  const Workload& w = *workload;
  // Forked first, while this process has a single thread.
  std::unique_ptr<MemoryProbeProcess> memory;
  if (w.kind == Kind::kServe) memory = std::make_unique<MemoryProbeProcess>();
  if (SimdAvailable()) SetBackend(Backend::kSimd);

  const CpuTicks cpu_before = ReadCpuTicks();
  Tracer tracer(!trace_path.empty());
  Report report;

  std::vector<double> setup_samples;
  HostProbe setup_probe(ComputeKernelMs, kComputeReferenceMs);
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();  // shuts the previous service down first
    const std::string dir = StrFormat("%s/setup%d", tmpdir.c_str(), i);
    std::filesystem::create_directories(dir);
    setup_probe.Sample(2);
    const double t0 = Now();
    setup = RunSetup(w, seed, dir, tracer);
    setup_samples.push_back(Now() - t0);
  }
  Setup& s = *setup;

  TimedPhase phase;
  switch (w.kind) {
    case Kind::kTrain:
      phase = RunTrain(s, seed, seconds, tracer, report);
      break;
    case Kind::kBulk:
      phase = RunBulk(s, seed, seconds, tracer, report);
      break;
    case Kind::kServe:
      phase = RunServe(w, s, seed, seconds, *memory, tracer, report);
      break;
  }
  if (s.service != nullptr) CheckServiceAfterShutdown(w, s, report);

  // At the reference host speed (see HostProbe); the raw values go to the
  // extras.
  auto percentile = [&](double p, const HostProbe* probe) {
    return MedianOfWindows(phase.latency_ms, phase.start, phase.length,
                           phase.windows, p, probe);
  };
  const double setup_raw = Median(setup_samples);
  double throughput = phase.throughput;
  double p50 = percentile(0.5, nullptr);
  double p99 = percentile(0.99, nullptr);
  report.Extra("raw.setup_s", setup_raw);
  report.Extra("raw.throughput_per_s", throughput);
  report.Extra("raw.latency_p50_ms", p50);
  report.Extra("raw.latency_p99_ms", p99);
  report.Extra("host.setup_probe_ms", setup_probe.MedianMs());
  report.Extra("host.probe_ms", phase.probe.MedianMs());
  throughput *= phase.probe.Factor();
  if (phase.adjust_latency) {
    p50 = percentile(0.5, &phase.probe);
    p99 = percentile(0.99, &phase.probe);
  }
  report.Metric("setup_s", setup_raw / setup_probe.Factor(), "s");
  report.Metric("throughput_per_s", throughput, "1/s");
  report.Metric("latency_p50_ms", p50, "ms");
  report.Metric("latency_p99_ms", p99, "ms");
  report.Extra("latency.samples",
               static_cast<double>(phase.latency_ms.size()));
  report.Extra("fwd.batch_rows", phase.mean_batch);

  if (tracer.enabled()) {
    const int64_t batch_rows =
        w.kind == Kind::kTrain
            ? kTrainBatch
            : (w.kind == Kind::kBulk
                   ? kMaxBatch
                   : std::clamp<int64_t>(std::llround(phase.mean_batch), 1,
                                         kMaxBatch));
    ReplayLayers(w, s, batch_rows, tracer, report);
  }

  report.Extra("host.steal_frac", StealFraction(cpu_before, ReadCpuTicks()));
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  setup.reset();

  if (tracer.enabled()) {
    const Status written = tracer.Write(trace_path);
    ARMNET_CHECK(written.ok()) << written.message();
  }
  const Status written =
      WriteLines(json_path, {ReportJson(w, seed, seconds, tracer.enabled(),
                                        setup_samples, report)});
  ARMNET_CHECK(written.ok()) << written.message();
  for (const Value& v : report.metrics) {
    std::printf("%s %s %.6g %s\n", w.name, v.name.c_str(), v.value,
                v.unit.c_str());
  }
  // Untraced runs measure only the layers their timed phase calls; the
  // report keeps those, the printout shows complete sets only.
  if (tracer.enabled()) {
    for (const Value& v : report.layers) {
      std::printf("%s %s %.6g %s\n", w.name, v.name.c_str(), v.value,
                  v.unit.c_str());
    }
  }
  return report.correct() ? 0 : 1;
}
