#pragma once

/// \file common.hpp
/// Shared plumbing of the StormTrack benchmark binary: options, seeds,
/// clocks and process resource readings, latency statistics, the span
/// recorder used by traced runs, and the result record every workload
/// fills in and main() prints.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stormbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Flip one bit of every reference fingerprint, so the result checks
  /// must fail; the self-test proves a wrong result is caught.
  bool corrupt_reference = false;
  /// Scratch space for this run (daemon state dir, socket, span files);
  /// relative to the working directory, which is the repository root.
  std::filesystem::path work_dir;
  /// This process is a set-up probe: set the workload up once, report
  /// when that is done (report_setup_done()), tear down and exit.
  bool setup_probe = false;
};

/// Executor threads every workload runs with (the pipeline's candidate
/// evaluation, workload integration, or the daemon's shared pool).
inline constexpr int kExecutorThreads = 2;
/// Set-up probes per run; setup_s is the median of their times. The
/// first kSetupWarmups probes are started but not counted: the first
/// process after the run's reference checks reloads the binary's pages.
inline constexpr int kSetupRepeats = 25;
inline constexpr int kSetupWarmups = 2;

/// SplitMix64 step: derives independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Process CPU seconds (user + system, all threads).
[[nodiscard]] double process_cpu_seconds();
/// Resident set of this process in MiB, now.
[[nodiscard]] double resident_mb();

/// Sorted sample set with the percentile rule the benchmark reports by:
/// the median, and the highest percentile with at least ten samples
/// beyond it (p95 needs 200 samples; fewer fall back to a lower one).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// Samples strictly beyond quantile(q).
  [[nodiscard]] std::size_t beyond(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void sort() const;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Spans recorded around the benchmark's calls into each layer. Spans of
/// one operation share its id; parents are span indices. Everything stays
/// in memory until write_chrome_json() at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    int parent = -1;
    double start = 0.0;  ///< Seconds since the tracer was created.
    double end = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its index, or -1 when tracing is off.
  int begin(const char* name, std::uint64_t op, int parent);
  void end(int index);
  /// Records a span timed elsewhere (another process's steady clock reads
  /// the same system-wide monotonic clock); returns its index.
  int record(const char* name, std::uint64_t op, int parent,
             Clock::time_point start, Clock::time_point end);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op, int parent)
        : tracer_(tracer), index_(tracer.begin(name, op, parent)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_;
  };

  /// Summed self time per span name, in seconds. A span's self time is
  /// its duration minus the time its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_times() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" events; pid = 1, tid = operation id),
  /// loadable in Perfetto or chrome://tracing.
  void write_chrome_json(const std::filesystem::path& path,
                         const std::string& stamp_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What a workload hands back to main().
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::map<std::string, Metric> metrics;
  /// Extra lines for the human-readable report (sample counts, the
  /// workload-named aliases of the generic metrics, per-layer totals).
  std::vector<std::string> notes;
  /// Spans to write when traced.
  std::unique_ptr<Tracer> tracer;
};

/// Per-layer figures of a traced run. Every workload reports the same
/// metric set (BENCHMARK.json's per_layer list); layers a workload does not
/// exercise read 0. Amounts accumulate as run totals and are reported per
/// operation; ratios, latencies and sampled means are set directly.
class LayerReport {
 public:
  void add(const std::string& name, double amount) { totals_[name] += amount; }
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Adds each span name's self time as "<name>_ms"; the operation's root
  /// span is named "trace.op", so "trace.op_ms" is the glue between layer
  /// calls.
  void add_spans(const Tracer& tracer);
  /// Fills r.metrics with every per-layer metric and r.notes with the
  /// totals they were derived from.
  void finish(Result& r, std::int64_t ops) const;

 private:
  std::map<std::string, double> totals_;
  std::map<std::string, double> values_;
};

/// hits / (hits + misses), 0 when both are 0.
[[nodiscard]] double ratio(double hits, double misses);

/// The timed window of an untraced run: each operation's latency and end
/// time, and readings of the process CPU clock along the way.
///
/// Every workload cycles through a fixed set of inputs, so each operation
/// repeats: its key names the input (a trace point, an episode interval, a
/// session spec). The latency figures are quantiles over the keys of each
/// key's median latency: a burst in which the host runs slow, or the cold
/// first visit of an input, moves one visit of a key, not the key's figure.
/// Throughput and CPU per operation are medians over consecutive windows of
/// at least kMinWindowOps operations (at most kMaxWindows), for the same
/// reason. Memory is the p95 of the resident set sampled every kRssPeriod
/// s: the daemon's high-water mark is one transient moment (buffers of
/// sessions that happened to overlap) and moved by up to 40 % between
/// runs, while the median of the samples jumps between two levels on the
/// particle workload as the allocator keeps or returns freed blocks.
class Meter {
 public:
  static constexpr std::size_t kMinWindowOps = 200;
  static constexpr std::size_t kMaxWindows = 10;
  static constexpr double kRssPeriod = 0.02;

  Meter() : start_(Clock::now()) { sample(); }

  /// One operation on input \p key that ran from \p begin to \p end.
  /// Operations run on this thread also sample() at their end.
  void add(std::uint64_t key, Clock::time_point begin, Clock::time_point end,
           bool sample_now);
  /// Reads the process CPU clock now, and the resident set if kRssPeriod
  /// has passed since it was last read (the daemon samples while it waits).
  void sample();
  /// Ends the window, before reference runs.
  void close();

  [[nodiscard]] std::size_t ops() const { return ops_.size(); }
  [[nodiscard]] double wall_seconds() const { return wall_; }
  /// Quantile \p q of the resident-set samples, MiB.
  [[nodiscard]] double rss(double q) const { return rss_.quantile(q); }
  [[nodiscard]] std::size_t rss_samples() const { return rss_.size(); }

  struct Figures {
    double p50 = 0.0, p95 = 0.0;  ///< Seconds, over per-key medians.
    double ops_per_s = 0.0;
    double cpu_per_op = 0.0;      ///< Seconds.
    std::size_t keys = 0;
    std::size_t min_visits = 0;   ///< Fewest operations of one key.
    std::size_t beyond_p95 = 0;   ///< Keys beyond p95.
    std::size_t windows = 0;
    std::size_t min_window_ops = 0;
  };
  [[nodiscard]] Figures figures() const;

 private:
  struct Op {
    std::uint64_t key = 0;
    double end = 0.0;      ///< Seconds since the window opened.
    double latency = 0.0;  ///< Seconds.
  };
  /// Process CPU seconds at \p t, from the last reading at or before it.
  [[nodiscard]] double cpu_at(double t) const;

  Clock::time_point start_;
  std::vector<Op> ops_;
  std::vector<std::pair<double, double>> cpu_;  ///< (time, CPU seconds).
  Samples rss_;  ///< MiB.
  double last_rss_ = -1.0;  ///< When rss_ was last sampled, s.
  double wall_ = 0.0;
};

/// Fill the end-to-end block shared by every workload. Called after the
/// timed window and the result checks; it times the set-up probes
/// (time_setup_probes()) there and reports their median as setup_s.
void put_end_to_end(Result& r, const Meter& meter, const Options& opt,
                    std::string_view op_name);

/// Format a double with all its digits.
[[nodiscard]] std::string fmt(double v);

/// Calls fn(0) .. fn(n - 1) on a few threads; for reference runs, which
/// happen outside every timed window. Rethrows the first exception.
void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Median of a small set of timings (set-up probes, windows, visits).
[[nodiscard]] double median_of(std::vector<double> values);

/// Times kSetupRepeats set-up probes (after kSetupWarmups uncounted
/// ones): fresh processes of this binary,
/// started with the run's workload and seed and --setup-probe, one after
/// another. Each probe's time runs from just before the process is
/// started to the moment it reports its set-up done, so it covers process
/// start (exec, dynamic loading, static initialisation) and the
/// workload's set-up in a cold process. Returns the probe times in s.
///
/// Runs start their probes after the timed window, while the host is still
/// warm from it: on an idle virtual machine a probe waits for idle CPUs to
/// wake at its first OpenMP region, which made probes taken first thing up
/// to 7x slower than the same probes taken a few seconds into a run.
[[nodiscard]] std::vector<double> time_setup_probes(const Options& opt);

/// In a set-up probe: tell the parent that set-up is complete.
void report_setup_done();

}  // namespace stormbench
