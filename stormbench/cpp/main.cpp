/// \file main.cpp
/// stormbench: runs one named workload of the StormTrack benchmark,
/// prints a stamped human-readable report, and ends its standard output
/// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
///
///   stormbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              [--work-dir <dir>] [--source-id <id>] [--why <text>]
///              [--corrupt-reference]
///
/// Normally started by stormbench/run.py, which builds this binary first.
/// Exit status: 0 when every output matched its reference (operations that
/// failed in other ways only count in "failed"), 1 when a result check
/// found a mismatch, 2 on bad arguments or an unexpected error.
///
/// With --setup-probe the binary only sets the workload up, prints
/// "setup-done <steady-clock ns>" and exits; a run starts such probes to
/// time its set-up (time_setup_probes()).

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef STORMBENCH_BUILD_TYPE
#define STORMBENCH_BUILD_TYPE "unknown"
#endif

/// Resolved only when the libraries pulled in an OpenMP runtime.
extern "C" int omp_get_max_threads() __attribute__((weak));

namespace stormbench {
namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "stormbench: " << problem
            << "\nusage: stormbench --workload "
               "<field_coupled|particles_coupled|realloc_scale|daemon_sessions>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]"
               " [--source-id <id>] [--why <text>] [--corrupt-reference]"
               " [--setup-probe]\n";
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& source_id, std::string& why) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--work-dir") {
        o.work_dir = value();
      } else if (arg == "--source-id") {
        source_id = value();
      } else if (arg == "--why") {
        why = value();
      } else if (arg == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else if (arg == "--setup-probe") {
        o.setup_probe = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload != "field_coupled" && o.workload != "particles_coupled" &&
      o.workload != "realloc_scale" && o.workload != "daemon_sessions")
    usage(o.workload.empty() ? "--workload is required"
                             : "unknown workload " + o.workload);
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  if (o.work_dir.empty())
    o.work_dir = std::filesystem::path(".bench_build") / "work" /
                 (o.workload + "-" + std::to_string(::getpid()));
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace
}  // namespace stormbench

int main(int argc, char** argv) {
  using namespace stormbench;
  std::string source_id = "unknown";
  std::string why;
  const Options opt = parse(argc, argv, source_id, why);
  if (opt.setup_probe) {
    try {
      std::filesystem::create_directories(opt.work_dir);
      if (opt.workload == "realloc_scale") {
        probe_realloc(opt);
      } else if (opt.workload == "daemon_sessions") {
        probe_daemon(opt);
      } else {
        probe_coupled(opt);
      }
      std::filesystem::remove_all(opt.work_dir);
    } catch (const std::exception& e) {
      std::cerr << "stormbench: set-up probe aborted: " << e.what() << "\n";
      return 2;
    }
    return 0;
  }

  std::ostringstream stamp;
  stamp << "{\"workload\":\"" << json_escape(opt.workload) << "\",\"seed\":"
        << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
        << ",\"source\":\"" << json_escape(source_id)
        << "\",\"build_type\":\"" STORMBENCH_BUILD_TYPE "\",\"nproc\":"
        << std::thread::hardware_concurrency()
        << ",\"executor_threads\":" << kExecutorThreads
        << ",\"omp_max_threads\":"
        << (omp_get_max_threads != nullptr ? omp_get_max_threads() : 0)
        << ",\"omp_num_threads_env\":\""
        << json_escape(std::getenv("OMP_NUM_THREADS") != nullptr
                           ? std::getenv("OMP_NUM_THREADS")
                           : "unset")
        << "\",\"why\":\"" << json_escape(why)
        << "\"}";
  std::cout << "stamp: " << stamp.str() << "\n";

  Result r;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "realloc_scale") {
      r = run_realloc(opt);
    } else if (opt.workload == "daemon_sessions") {
      r = run_daemon(opt);
    } else {
      r = run_coupled(opt);
    }
    std::filesystem::remove_all(opt.work_dir);
  } catch (const std::exception& e) {
    std::cerr << "stormbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }

  for (const std::string& note : r.notes) std::cout << note << "\n";
  for (const auto& [name, m] : r.metrics)
    std::cout << "metric " << name << " = " << fmt(m.value) << " " << m.unit
              << "\n";
  if (r.tracer != nullptr) {
    const std::filesystem::path spans =
        std::filesystem::path(".bench_build") / "traces" /
        (opt.workload + "-seed" + std::to_string(opt.seed) + ".json");
    r.tracer->write_chrome_json(spans, stamp.str());
    std::cout << "spans: " << spans.string() << " (" << r.tracer->size()
              << " spans)\n";
  }

  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return r.correct ? 0 : 1;
}
