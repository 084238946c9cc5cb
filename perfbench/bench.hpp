// Shared pieces of the repository benchmark: the span tracer, sample
// statistics, the metric sheet a run prints, and the workload entry points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- spans ----

/// One call into the program, as seen from the benchmark: host seconds
/// since the tracer's epoch, and the span it was made under (0 = root).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0;
  double end = 0;
  std::uint64_t thread = 0;
};

/// In-memory span store for the traced run. Spans are written out only when
/// the run ends. Thread-safe: campaign cells record from sweep workers.
class Tracer {
 public:
  Tracer();

  /// Recording is switched per iteration, never while workers run.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const;
  std::uint64_t next_id() { return last_id_.fetch_add(1) + 1; }
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace_event JSON (complete events, parent in args).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into the program. It always measures, because the
/// untraced run needs the same phase timings; it records a span only while
/// the tracer is enabled.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, std::uint64_t parent = 0);
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (once); returns its duration in seconds.
  double stop();
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  double start_;
  double seconds_ = -1;
};

/// Per span name: how many spans, their total time, and their self time
/// (duration minus the part of the interval covered by child spans).
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

// ---- statistics ----

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
/// The highest whole percentile with at least ten samples beyond it, or
/// 100 (the maximum) when there are too few samples for one.
double tail_percentile(std::size_t samples);

// ---- what a run reports ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Every number a run produces, in print order.
struct Sheet {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// ---- workloads ----

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// The deterministic outcome of one pass: public outputs only, so two
/// commits can compare their simulated behaviour exactly.
struct Outcome {
  std::uint64_t jobs = 0;     ///< jobs brought to a checked terminal state
  std::uint64_t events = 0;   ///< Engine::executed, summed over pools
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t matches = 0;  ///< 0 where the entry point hides them
  std::uint64_t evals = 0;
  std::uint64_t attempts = 0;
  std::uint64_t claims_denied = 0;
  std::uint64_t schedd_incidental = 0;
  std::uint64_t spans = 0;          ///< FlightRecorder::total_recorded
  std::uint64_t journal_bytes = 0;  ///< 0 unless a journal was rendered
  double makespan_s = 0;            ///< simulated, mean per pool
  double wasted_cpu_s = 0;          ///< simulated, summed
  std::uint64_t model_incidental = 0;
  std::string digest_text;  ///< what the digest hashes
  [[nodiscard]] std::uint64_t digest() const;
};

/// Host-time breakdown of one pass (seconds).
struct PassTimes {
  double setup = 0;   ///< build pools/cells, stage inputs, submit, draw plans
  double window = 0;  ///< first simulated event to checked result, pools gone
  /// Per-pool phase times (one entry per Pool, i.e. per campaign cell).
  std::vector<double> build, submit, run, report, teardown;
  std::vector<double> cell;          ///< whole-pool lifetime per pool
  std::vector<double> journal_str;   ///< per pool, where rendered
  std::vector<double> render_dump;
  double batch_wall = 0;  ///< first pool built .. last pool destroyed
  double judge = 0;       ///< serial judging after the batch
  unsigned width = 1;
};

/// Layer replays on inputs taken from the workload.
struct ProbeInputs;

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Shape and the reason the workload exists, for the printed header.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// One full pass: set up, run, check. `probe` (traced passes only) is
  /// filled from the live pool(s) before teardown and timed apart from
  /// the window. Check failures and failed operations go into `sheet`.
  virtual Outcome pass(Tracer& tracer, bool traced, PassTimes& times,
                       ProbeInputs* probe, Sheet& sheet) = 0;
  /// The pass's set-up alone, undone untimed; returns host seconds. More
  /// set-up samples per run keep the setup_s median steady.
  virtual double setup_only() = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
