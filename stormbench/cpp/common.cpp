#include "common.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace stormbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double resident_mb() {
  std::ifstream in("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  in >> size >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Samples::sort() const {
  if (sorted_) return;
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  sort();
  const auto n = static_cast<double>(values_.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values_[std::min(rank, values_.size()) - 1];
}

std::size_t Samples::beyond(double q) const {
  if (values_.empty()) return 0;
  const double cut = quantile(q);
  return static_cast<std::size_t>(
      values_.end() - std::upper_bound(values_.begin(), values_.end(), cut));
}

int Tracer::begin(const char* name, std::uint64_t op, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start = seconds_between(origin_, Clock::now());
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end =
      seconds_between(origin_, Clock::now());
}

int Tracer::record(const char* name, std::uint64_t op, int parent,
                   Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  spans_.push_back({name, op, parent, seconds_between(origin_, start),
                    seconds_between(origin_, end)});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_times() const {
  // Children of one parent run one after another on the benchmark's
  // thread, so the time they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += (spans_[i].end - spans_[i].start) - child_time[i];
  return out;
}

void Tracer::write_chrome_json(const std::filesystem::path& path,
                               const std::string& stamp_json) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"otherData\":" << stamp_json << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<unsigned long long>(s.op), s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent);
    out << buf;
  }
  out << "]}\n";
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min<std::size_t>(
      n, std::max(1u, std::min(3u, std::thread::hardware_concurrency())));
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::int64_t steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Starts one probe and returns the steady-clock time it reported, in ns.
std::int64_t run_probe(const std::vector<std::string>& args,
                       std::int64_t& started) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  started = steady_ns(Clock::now());
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    throw std::runtime_error(std::string("spawning a set-up probe: ") +
                             std::strerror(rc));
  }
  std::string text;
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(out[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::int64_t done = 0;
  std::istringstream in(text);
  std::string tag;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(in >> tag >> done) ||
      tag != "setup-done")
    throw std::runtime_error("set-up probe failed: " + text);
  return done;
}

}  // namespace

std::vector<double> time_setup_probes(const Options& opt) {
  std::vector<double> times;
  for (int i = 0; i < kSetupWarmups + kSetupRepeats; ++i) {
    const std::vector<std::string> args = {
        "stormbench", "--workload", opt.workload, "--seed",
        std::to_string(opt.seed), "--seconds", fmt(opt.seconds), "--trace", "0",
        "--work-dir", (opt.work_dir / ("probe-" + std::to_string(i))).string(),
        "--setup-probe"};
    std::int64_t started = 0;
    const std::int64_t done = run_probe(args, started);
    if (i >= kSetupWarmups)
      times.push_back(static_cast<double>(done - started) * 1e-9);
  }
  return times;
}

void report_setup_done() {
  std::printf("setup-done %lld\n",
              static_cast<long long>(steady_ns(Clock::now())));
  std::fflush(stdout);
}

void Meter::add(std::uint64_t key, Clock::time_point begin,
                Clock::time_point end, bool sample_now) {
  ops_.push_back({key, seconds_between(start_, end), seconds_between(begin, end)});
  if (sample_now) sample();
}

void Meter::sample() {
  const double t = seconds_between(start_, Clock::now());
  cpu_.emplace_back(t, process_cpu_seconds());
  if (last_rss_ < 0.0 || t - last_rss_ >= kRssPeriod) {
    rss_.add(resident_mb());
    last_rss_ = t;
  }
}

void Meter::close() {
  sample();
  wall_ = cpu_.back().first;
}

double Meter::cpu_at(double t) const {
  const auto it = std::upper_bound(
      cpu_.begin(), cpu_.end(), t,
      [](double v, const std::pair<double, double>& c) { return v < c.first; });
  return it == cpu_.begin() ? cpu_.front().second : std::prev(it)->second;
}

Meter::Figures Meter::figures() const {
  std::vector<Op> ops = ops_;
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.end < b.end; });
  const std::size_t n = ops.size();
  Figures f;
  if (n == 0) return f;

  std::map<std::uint64_t, std::vector<double>> by_key;
  for (const Op& op : ops) by_key[op.key].push_back(op.latency);
  Samples latency;
  f.keys = by_key.size();
  f.min_visits = n;
  for (auto& [key, visits] : by_key) {
    f.min_visits = std::min(f.min_visits, visits.size());
    latency.add(median_of(std::move(visits)));
  }
  f.p50 = latency.quantile(0.50);
  f.p95 = latency.quantile(0.95);
  f.beyond_p95 = latency.beyond(0.95);

  f.windows = std::clamp<std::size_t>(n / kMinWindowOps, 1, kMaxWindows);
  f.min_window_ops = n;
  std::vector<double> rate, cpu;
  for (std::size_t k = 0; k < f.windows; ++k) {
    const std::size_t lo = k * n / f.windows;
    const std::size_t hi = (k + 1) * n / f.windows;
    f.min_window_ops = std::min(f.min_window_ops, hi - lo);
    const double from = lo == 0 ? 0.0 : ops[lo - 1].end;
    const double to = ops[hi - 1].end;
    const auto count = static_cast<double>(hi - lo);
    if (to > from) rate.push_back(count / (to - from));
    cpu.push_back((cpu_at(to) - cpu_at(from)) / count);
  }
  f.ops_per_s = median_of(rate);
  f.cpu_per_op = median_of(cpu);
  return f;
}

void put_end_to_end(Result& r, const Meter& meter, const Options& opt,
                    std::string_view op_name) {
  const std::vector<double> setups = time_setup_probes(opt);
  const Meter::Figures f = meter.figures();
  const double ok = r.attempted > 0
                        ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0;
  r.metrics["op_ms_p50"] = {f.p50 * 1e3, "ms"};
  r.metrics["op_ms_p95"] = {f.p95 * 1e3, "ms"};
  r.metrics["ops_per_s"] = {f.ops_per_s, "1/s"};
  r.metrics["cpu_ms_per_op"] = {f.cpu_per_op * 1e3, "ms"};
  r.metrics["setup_s"] = {median_of(setups), "s"};
  r.metrics["rss_mb_p95"] = {meter.rss(0.95), "MiB"};
  r.metrics["ok_frac"] = {ok, "ratio"};
  std::ostringstream n;
  n << "samples: op=" << op_name << " n=" << meter.ops() << " keys=" << f.keys
    << " min_visits_per_key=" << f.min_visits
    << " keys_beyond_p95=" << f.beyond_p95
    << (f.beyond_p95 < 10 ? " (p95 has <10 keys beyond it)" : "")
    << " windows=" << f.windows << " min_window_ops=" << f.min_window_ops
    << " rss_samples=" << meter.rss_samples()
    << " rss_mb_p50=" << fmt(meter.rss(0.50))
    << " wall_s=" << fmt(meter.wall_seconds()) << " fail_frac=" << fmt(1.0 - ok);
  r.notes.push_back(n.str());
  std::ostringstream probes;
  probes << "setup: probes=" << setups.size() << " ms=";
  for (std::size_t i = 0; i < setups.size(); ++i)
    probes << (i == 0 ? "" : ",") << fmt(setups[i] * 1e3);
  r.notes.push_back(probes.str());
}

namespace {

/// Every per-layer metric, in report order: name, unit, and whether the
/// run total is divided by the operation count.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  bool per_op;
};

constexpr LayerMetricDef kLayerMetrics[] = {
    {"wsim.weather_step_ms", "ms/op", true},
    {"wsim.split_files_ms", "ms/op", true},
    {"wsim.split_bytes", "B/op", true},
    {"wsim.integrate_ms", "ms/op", true},
    {"wsim.halo_bytes", "B/op", true},
    {"wsim.lifecycle_ms", "ms/op", true},
    {"wsim.moved_bytes", "B/op", true},
    {"wsim.handoffs", "count/op", true},
    {"wsim.ping_pong_particles", "count/op", true},
    {"wsim.advected_particle_steps", "count/op", true},
    {"pda.analysis_ms", "ms/op", true},
    {"pda.rois", "count/op", true},
    {"core.tracker_ms", "ms/op", true},
    {"core.apply_ms", "ms/op", true},
    {"core.stage_diff_nests_ms", "ms/op", true},
    {"core.stage_derive_weights_ms", "ms/op", true},
    {"core.stage_build_candidates_ms", "ms/op", true},
    {"core.stage_predict_costs_ms", "ms/op", true},
    {"core.stage_commit_ms", "ms/op", true},
    {"core.stage_redistribute_ms", "ms/op", true},
    {"core.candidates_built", "count/op", true},
    {"core.cost_queries", "count/op", true},
    {"core.redist_plans", "count/op", true},
    {"core.stable_subtrees", "count/op", true},
    {"redist.plans_built", "count/op", true},
    {"redist.messages_materialized", "count/op", true},
    {"redist.message_bytes_materialized", "B/op", true},
    {"redist.intersection_probes", "count/op", true},
    {"redist.moved_blocks_enumerated", "count/op", true},
    {"redist.cost_cache_hit_ratio", "ratio", false},
    {"perfmodel.exec_lookups", "count/op", true},
    {"perfmodel.exec_hit_ratio", "ratio", false},
    {"exec.tasks", "count/op", true},
    {"exec.batches", "count/op", true},
    {"exec.busy_s", "s/op", true},
    {"exec.occupancy", "ratio", false},
    {"ckpt.files_written", "count/op", true},
    {"ckpt.file_syncs", "count/op", true},
    {"ckpt.dir_syncs", "count/op", true},
    {"ckpt.bytes_written", "B/op", true},
    {"serve.submit_ms_p50", "ms", false},
    {"serve.submit_ms_p95", "ms", false},
    {"serve.first_event_ms_p50", "ms", false},
    {"serve.event_gap_ms_p50", "ms", false},
    {"serve.event_gap_ms_p95", "ms", false},
    {"serve.rejected_busy", "count/op", true},
    {"serve.retries", "count/op", true},
    {"serve.pricing_shared_hit_ratio", "ratio", false},
    {"serve.pool_executing_mean", "count", false},
    {"serve.runnable_mean", "count", false},
    {"trace.op_ms", "ms/op", true},
    {"trace.overhead_ratio", "ratio", false},
};

}  // namespace

double ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void LayerReport::add_spans(const Tracer& tracer) {
  for (const auto& [name, self] : tracer.self_times()) add(name + "_ms", self * 1e3);
}

void LayerReport::finish(Result& r, std::int64_t ops) const {
  for (const LayerMetricDef& def : kLayerMetrics) {
    double value = 0.0;
    std::ostringstream note;
    note << "layer " << def.name << ": ";
    if (def.per_op) {
      const auto it = totals_.find(def.name);
      const double total = it == totals_.end() ? 0.0 : it->second;
      value = ops > 0 ? total / static_cast<double>(ops) : 0.0;
      note << "total=" << fmt(total) << " per_op=" << fmt(value)
           << " ops=" << ops;
    } else {
      const auto it = values_.find(def.name);
      value = it == values_.end() ? 0.0 : it->second;
      note << "value=" << fmt(value);
    }
    r.metrics[def.name] = {value, def.unit};
    r.notes.push_back(note.str());
  }
}

}  // namespace stormbench
