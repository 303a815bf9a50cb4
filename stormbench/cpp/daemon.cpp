/// \file daemon.cpp
/// daemon_sessions: an in-process stormtrackd — SessionSupervisor in pool
/// mode (2 pool threads, shared pricing, a checkpoint every interval,
/// admission bound above the client count) behind a SessionServer on a
/// Unix socket — driven by one forked load-generator process whose
/// kClients connections each run a closed loop: submit a session, follow
/// it to its terminal state, then submit the next.
///
/// The session mix comes from the run seed: kSpecs specs covering field /
/// particles × 256 / 1024 cores × 2–6 intervals, two tenants, scenario
/// seeds drawn from the run seed. The clients take specs in turn from one
/// seeded order of the whole mix, so a run submits every spec about equally
/// often and its latency figures rest on the mix, not on which specs a
/// random draw favoured. Every session that ends `done` must carry the state
/// fingerprint of an in-process CoupledSimulation run of its spec; a
/// mismatch fails the run. Any other end, and any refused submit, is a
/// failed operation: it counts in `failed` and ok_frac, not in
/// correctness.
///
/// The load generator stamps events with the steady clock, which is the
/// system-wide monotonic clock, and sends raw times back over a pipe; the
/// daemon process turns them into latencies and spans.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "counters.hpp"
#include "workloads.hpp"

namespace stormbench {
namespace {

namespace fs = std::filesystem;
using namespace stormtrack;

constexpr int kClients = 3;
// 2 workloads x 2 core counts x 5 lengths, each on kReplicas scenarios.
constexpr int kCombos = 20;
constexpr int kReplicas = 10;
constexpr int kSpecs = kCombos * kReplicas;
constexpr double kStatsPeriod = 0.025;

std::vector<SessionSpec> session_mix(std::uint64_t seed) {
  std::vector<SessionSpec> specs;
  for (int i = 0; i < kSpecs; ++i) {
    const int combo = i % kCombos;
    SessionSpec s;
    s.tenant = i % 2 == 0 ? "tenant-a" : "tenant-b";
    s.machine = "bgl";
    s.workload = (combo / 2) % 2 == 0 ? "field" : "particles";
    s.cores = combo % 4 < 2 ? 256 : 1024;
    s.intervals = 2 + combo / 4;
    s.strategy = "dynamic";
    s.seed = mix_seed(seed, 500 + static_cast<std::uint64_t>(i));
    specs.push_back(s);
  }
  return specs;
}

/// The order in which the clients submit the specs: a seeded shuffle of
/// the mix, walked cyclically.
std::vector<int> submit_order(std::uint64_t seed) {
  std::vector<int> order(kSpecs);
  for (int i = 0; i < kSpecs; ++i) order[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[mix_seed(seed, 600 + i) % (i + 1)]);
  return order;
}

std::int64_t ticks(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

Clock::time_point from_ticks(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// One session as the load generator saw it.
struct SessionRecord {
  int client = 0;
  int spec = 0;
  int phase = 0;  ///< 1 = the traced phase of a traced run.
  bool accepted = false;
  std::uint64_t id = 0;
  int state = -1;
  std::uint64_t fingerprint = 0;
  std::int64_t submit = 0, reply = 0, done = 0;  ///< Steady-clock ns.
  std::vector<std::int64_t> events;
};

// ---- load generator (child process) ---------------------------------------

struct LoadPlan {
  fs::path socket;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

void client_loop(const LoadPlan& plan, int client, Clock::time_point phase_end,
                 Clock::time_point end, std::atomic<std::uint64_t>& next,
                 std::vector<SessionRecord>& out) {
  const std::vector<SessionSpec> specs = session_mix(plan.seed);
  const std::vector<int> order = submit_order(plan.seed);
  ClientConnection conn(plan.socket);
  while (Clock::now() < end) {
    SessionRecord rec;
    rec.client = client;
    rec.spec = order[next.fetch_add(1) % order.size()];
    rec.phase = plan.trace && Clock::now() >= phase_end ? 1 : 0;
    rec.submit = ticks(Clock::now());
    const ClientConnection::SubmitReply reply =
        conn.submit(specs[static_cast<std::size_t>(rec.spec)]);
    rec.reply = ticks(Clock::now());
    rec.accepted = reply.accepted;
    if (reply.accepted) {
      rec.id = reply.id;
      const SessionStatus status = conn.attach(
          reply.id, 0, [&](const SessionEvent&) {
            rec.events.push_back(ticks(Clock::now()));
          });
      rec.state = static_cast<int>(status.state);
      rec.fingerprint = status.fingerprint;
    }
    rec.done = ticks(Clock::now());
    out.push_back(std::move(rec));
    if (!reply.accepted)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Child process body: wait for the go byte, run the clients, stream the
/// records back as text lines, exit without unwinding the parent's state.
[[noreturn]] void load_generator(const LoadPlan& plan, int go_fd, int out_fd) {
  std::ostringstream out;
  int code = 0;
  try {
    char go = 0;
    if (::read(go_fd, &go, 1) != 1) ::_exit(4);
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(plan.seconds));
    // A traced run measures an untraced first half as the overhead base.
    const auto phase_end = start + (end - start) / 2;
    std::vector<std::vector<SessionRecord>> records(kClients);
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> clients;
    std::exception_ptr failure;
    std::mutex failure_mutex;
    std::atomic<bool> stop_sampler{false};
    std::vector<std::string> samples;
    std::thread sampler;
    if (plan.trace) {
      sampler = std::thread([&] {
        try {
          ClientConnection conn(plan.socket);
          while (!stop_sampler.load()) {
            if (Clock::now() >= phase_end) {
              const ServerStats s = conn.stats();
              std::ostringstream line;
              line << "X " << s.pool_executing << " " << s.pool_runnable
                   << "\n";
              samples.push_back(line.str());
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kStatsPeriod));
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          failure = std::current_exception();
        }
      });
    }
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          client_loop(plan, c, phase_end, end, next, records[c]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          failure = std::current_exception();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    stop_sampler.store(true);
    if (sampler.joinable()) sampler.join();
    if (failure) std::rethrow_exception(failure);
    for (const auto& per_client : records) {
      for (const SessionRecord& r : per_client) {
        out << "S " << r.client << " " << r.spec << " " << r.phase << " "
            << r.accepted << " " << r.id << " " << r.state << " "
            << r.fingerprint << " " << r.submit << " " << r.reply << " "
            << r.done << " " << r.events.size();
        for (const std::int64_t t : r.events) out << " " << t;
        out << "\n";
      }
    }
    for (const std::string& s : samples) out << s;
  } catch (const std::exception& e) {
    out << "E " << e.what() << "\n";
    code = 3;
  }
  const std::string text = out.str();
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(out_fd, text.data() + off, text.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ::_exit(5);
    off += static_cast<std::size_t>(n);
  }
  ::close(out_fd);
  ::_exit(code);
}

// ---- daemon side (this process) -------------------------------------------

/// The child process, killed and reaped on every exit path.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait();
    }
  }
  void set(pid_t pid) { pid_ = pid; }
  /// Reaps the child; returns its exit status, or -1 if it did not exit
  /// normally.
  int wait() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Reads \p fd to EOF, sampling this process's CPU clock and resident set
/// into \p meter every Meter::kRssPeriod meanwhile; throws if that takes
/// longer than \p timeout_s.
std::string read_all(int fd, double timeout_s, Meter& meter) {
  std::string data;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  char buf[65536];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) throw std::runtime_error("load generator timed out");
    meter.sample();
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(
        &p, 1,
        static_cast<int>(std::min<long>(
            left, static_cast<long>(Meter::kRssPeriod * 1000.0))));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) throw std::runtime_error("poll on the load generator failed");
    if (ready == 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error("read from the load generator failed");
    if (n == 0) return data;
    data.append(buf, static_cast<std::size_t>(n));
  }
}

ServeLimits serve_limits() {
  ServeLimits limits;
  limits.pool_threads = kExecutorThreads;
  limits.max_active = 2 * kClients;
  limits.max_queued = 2 * kClients;
  limits.shared_pricing = true;
  limits.checkpoint_every = 1;
  limits.session_deadline_seconds = 60.0;
  return limits;
}

struct Daemon {
  std::unique_ptr<SessionSupervisor> supervisor;
  std::unique_ptr<SessionServer> server;

  void stop() {
    if (server) server->stop();
    if (supervisor) supervisor->stop();
    server.reset();
    supervisor.reset();
  }
};

Daemon start_daemon(const fs::path& state_dir, const fs::path& socket) {
  Daemon d;
  d.supervisor = std::make_unique<SessionSupervisor>(state_dir, serve_limits());
  (void)d.supervisor->recover();
  d.supervisor->start();
  ServerConfig cfg;
  cfg.socket_path = socket;
  d.server = std::make_unique<SessionServer>(*d.supervisor, cfg);
  d.server->start();
  return d;
}

std::uint64_t bytes_under(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

std::vector<SessionRecord> parse_records(const std::string& text,
                                         std::vector<std::pair<double, double>>& samples,
                                         std::string& error) {
  std::vector<SessionRecord> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string tag;
    f >> tag;
    if (tag == "S") {
      SessionRecord r;
      std::size_t n = 0;
      f >> r.client >> r.spec >> r.phase >> r.accepted >> r.id >> r.state >>
          r.fingerprint >> r.submit >> r.reply >> r.done >> n;
      r.events.resize(n);
      for (std::int64_t& t : r.events) f >> t;
      if (!f) throw std::runtime_error("malformed load-generator record");
      out.push_back(std::move(r));
    } else if (tag == "X") {
      double executing = 0, runnable = 0;
      f >> executing >> runnable;
      samples.emplace_back(executing, runnable);
    } else if (tag == "E") {
      error = line.substr(2);
    }
  }
  return out;
}

/// In-process CoupledSimulation runs of the specs done sessions used.
std::map<int, std::uint64_t> references(const std::vector<SessionSpec>& specs,
                                        const std::vector<SessionRecord>& recs) {
  std::vector<int> used;
  for (const SessionRecord& r : recs)
    if (r.state == static_cast<int>(SessionState::kDone)) used.push_back(r.spec);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  const ModelStack models;
  std::vector<std::uint64_t> found(used.size());
  run_parallel(used.size(), [&](std::size_t j) {
    const SessionSpec& spec = specs[static_cast<std::size_t>(used[j])];
    const Machine machine = Machine::by_name(spec.machine, spec.cores);
    CoupledConfig cfg;
    cfg.scenario.num_intervals = spec.intervals;
    cfg.scenario.seed = spec.seed;
    cfg.manager.strategy = spec.strategy;
    cfg.workload = spec.workload;
    CoupledSimulation sim(machine, models.model, models.truth, cfg);
    for (int i = 0; i < spec.intervals; ++i) (void)sim.advance();
    found[j] = sim.state_fingerprint();
  });
  std::map<int, std::uint64_t> ref;
  for (std::size_t j = 0; j < used.size(); ++j) ref[used[j]] = found[j];
  return ref;
}

}  // namespace

Result run_daemon(const Options& opt) {
  const fs::path socket = opt.work_dir / "d.sock";
  int go[2];
  int back[2];
  if (::pipe2(go, O_CLOEXEC) != 0 || ::pipe2(back, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  // Fork before this process starts any thread, with nothing left in the
  // output buffers for the child to inherit.
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(go[1]);
    ::close(back[0]);
    load_generator({socket, opt.seed, opt.seconds, opt.trace}, go[0], back[1]);
  }
  Child child;
  child.set(pid);
  ::close(go[0]);
  ::close(back[1]);

  Result r;
  Daemon daemon = start_daemon(opt.work_dir / "state", socket);
  const fs::path state_dir = daemon.supervisor->state_dir();

  auto tracer = std::make_unique<Tracer>(opt.trace);
  const CounterSnapshot before = CounterSnapshot::take(nullptr, nullptr);
  Meter meter;
  const char byte = 1;
  if (::write(go[1], &byte, 1) != 1)
    throw std::runtime_error("cannot start the load generator");
  ::close(go[1]);
  std::string text;
  try {
    text = read_all(back[0], opt.seconds + 120.0, meter);
  } catch (...) {
    ::close(back[0]);
    daemon.stop();
    throw;
  }
  ::close(back[0]);
  const int child_status = child.wait();
  meter.close();
  const CounterSnapshot after = CounterSnapshot::take(nullptr, nullptr);
  const ServerStats stats = daemon.supervisor->stats();
  const MetricsRegistry server_metrics = daemon.supervisor->metrics();
  const std::uint64_t state_bytes = bytes_under(state_dir);
  daemon.stop();

  std::vector<std::pair<double, double>> samples;
  std::string error;
  const std::vector<SessionRecord> recs = parse_records(text, samples, error);
  if (child_status != 0 || !error.empty())
    throw std::runtime_error("load generator failed (status " +
                             std::to_string(child_status) + "): " + error);

  // Result check, outside the timed window.
  const std::vector<SessionSpec> specs = session_mix(opt.seed);
  const std::map<int, std::uint64_t> ref = references(specs, recs);
  Samples phase_s[2];
  std::int64_t rejected = 0;
  for (const SessionRecord& rec : recs) {
    ++r.attempted;
    if (!rec.accepted) {
      ++r.failed;
      ++rejected;
      continue;
    }
    if (rec.state != static_cast<int>(SessionState::kDone)) {
      ++r.failed;
      r.notes.push_back("session " + std::to_string(rec.id) + " ended " +
                        to_string(static_cast<SessionState>(rec.state)));
      continue;
    }
    std::uint64_t expect = ref.at(rec.spec);
    if (opt.corrupt_reference) expect ^= 1;
    if (rec.fingerprint != expect) {
      ++r.failed;
      r.correct = false;
      std::ostringstream n;
      n << "MISMATCH session " << rec.id << " (spec " << rec.spec
        << "): fingerprint " << std::hex << rec.fingerprint
        << " != in-process run " << expect;
      r.notes.push_back(n.str());
      continue;
    }
    meter.add(static_cast<std::uint64_t>(rec.spec), from_ticks(rec.submit),
              from_ticks(rec.done), false);
    phase_s[rec.phase].add(static_cast<double>(rec.done - rec.submit) * 1e-9);
  }

  if (!opt.trace) {
    put_end_to_end(r, meter, opt, "session");
    std::ostringstream n;
    n << "aliases: session_s_p50=" << fmt(r.metrics["op_ms_p50"].value * 1e-3)
      << " session_s_p95=" << fmt(r.metrics["op_ms_p95"].value * 1e-3)
      << " sessions_per_s=" << fmt(r.metrics["ops_per_s"].value)
      << " rejected=" << rejected << " distinct_specs_checked=" << ref.size();
    r.notes.push_back(n.str());
  } else {
    LayerReport layers;
    Samples submit_ms, first_event_ms, gap_ms;
    std::int64_t traced_ops = 0;
    for (const SessionRecord& rec : recs) {
      if (!rec.accepted) continue;
      traced_ops += rec.phase;
      const int root = tracer->record("trace.op", rec.id, -1,
                                      from_ticks(rec.submit), from_ticks(rec.done));
      tracer->record("serve.submit", rec.id, root, from_ticks(rec.submit),
                     from_ticks(rec.reply));
      submit_ms.add(static_cast<double>(rec.reply - rec.submit) * 1e-6);
      std::int64_t prev = rec.reply;
      for (std::size_t i = 0; i < rec.events.size(); ++i) {
        const std::int64_t t = rec.events[i];
        tracer->record(i == 0 ? "serve.first_event" : "serve.event_gap", rec.id,
                       root, from_ticks(prev), from_ticks(t));
        (i == 0 ? first_event_ms : gap_ms).add(static_cast<double>(t - prev) * 1e-6);
        prev = t;
      }
    }
    add_counter_deltas(layers, before, after, meter.wall_seconds());
    layers.add("exec.batches", static_cast<double>(stats.pool_batches));
    layers.add("ckpt.bytes_written", static_cast<double>(state_bytes));
    layers.set("serve.submit_ms_p50", submit_ms.quantile(0.5));
    layers.set("serve.submit_ms_p95", submit_ms.quantile(0.95));
    layers.set("serve.first_event_ms_p50", first_event_ms.quantile(0.5));
    layers.set("serve.event_gap_ms_p50", gap_ms.quantile(0.5));
    layers.set("serve.event_gap_ms_p95", gap_ms.quantile(0.95));
    layers.add("serve.rejected_busy", static_cast<double>(rejected));
    layers.add("serve.retries",
               static_cast<double>(server_metrics.get("server.retries").count));
    layers.set("serve.pricing_shared_hit_ratio", stats.pricing_shared_hit_rate());
    double executing = 0.0, runnable = 0.0;
    for (const auto& [e, q] : samples) {
      executing += e;
      runnable += q;
    }
    if (!samples.empty()) {
      layers.set("serve.pool_executing_mean",
                 executing / static_cast<double>(samples.size()));
      layers.set("serve.runnable_mean",
                 runnable / static_cast<double>(samples.size()));
    }
    layers.add_spans(*tracer);
    layers.set("trace.overhead_ratio", phase_s[0].size() > 0 && phase_s[1].size() > 0
                                           ? phase_s[1].mean() / phase_s[0].mean()
                                           : 0.0);
    layers.finish(r, r.attempted);
    std::ostringstream n;
    n << "trace: spans=" << tracer->size() << " traced_sessions=" << traced_ops
      << " untraced_sessions=" << phase_s[0].size()
      << " stats_samples=" << samples.size()
      << " session_mean_s untraced=" << fmt(phase_s[0].mean())
      << " traced=" << fmt(phase_s[1].mean());
    r.notes.push_back(n.str());
    r.tracer = std::move(tracer);
  }
  std::ostringstream n;
  n << "config: pool_threads=" << kExecutorThreads << " clients=" << kClients
    << " max_active=" << serve_limits().max_active
    << " checkpoint_every=1 shared_pricing=1 spec_mix=" << kSpecs
    << " (field|particles x 256|1024 cores x 2-6 intervals, 2 tenants)";
  r.notes.insert(r.notes.begin(), n.str());
  return r;
}

void probe_daemon(const Options& opt) {
  Daemon daemon = start_daemon(opt.work_dir / "state", opt.work_dir / "d.sock");
  report_setup_done();
  daemon.stop();
}

}  // namespace stormbench
