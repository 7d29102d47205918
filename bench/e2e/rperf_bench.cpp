// rperf_bench — the end-to-end benchmark: four fixed workloads, each
// measured from outside through the program's public entry points, each
// reporting the same catalogue of end-to-end and per-layer metrics
// (metrics.hpp; bench/e2e/README.md explains every one).
//
//   rperf_bench [--workload all|NAME] [--seed N] [--seconds S]
//               [--json PATH] [--trace PATH] [--workdir DIR] [--smoke]
//
// Every workload runs in its own child process: pool workers are forked
// only from a process that has never run OpenMP in the same address
// space, and each workload's peak RSS is its own. The parent prints one
// `workload metric value unit` line per metric, writes the same (with a
// host descriptor) to --json, writes the traced pass's spans as Chrome
// trace JSON to --trace, and exits 1 when any correctness check failed.
//
// --trace PATH turns on the traced pass: after the untraced measurement
// each workload repeats its work with spans around every call into the
// program (spans.hpp). End-to-end metrics always come from the untraced
// pass; the span-derived per-layer metrics read 0 without --trace.
#include <omp.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "counters/perf_event.hpp"
#include "instrument/json.hpp"
#include "workloads.hpp"

#ifndef RPERF_BENCH_BUILD_TYPE
#define RPERF_BENCH_BUILD_TYPE "unknown"
#endif

namespace rperf::bench {
namespace {

namespace fs = std::filesystem;

/// In the order `--workload all` runs them.
const std::vector<std::string> kWorkloads = {"sweep_inproc", "sweep_pooled",
                                             "kernels_on", "store_ledger"};

/// Peak resident set of this process plus its largest reaped child, MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Size of the level-`level` data or unified cache of cpu0 ("2048K"), from
/// sysfs; "" when the kernel does not say.
std::string cache_size(int level) {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(base, ec)) {
    const std::string dir = e.path().string();
    if (read_first_line(dir + "/level") != std::to_string(level)) continue;
    if (read_first_line(dir + "/type") == "Instruction") continue;
    return read_first_line(dir + "/size");
  }
  return "";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "";
}

/// The host every figure in this run was measured on.
json::Object host_descriptor() {
  json::Object h;
  h["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  h["cpu_model"] = cpu_model();
  h["l2_per_core"] = cache_size(2);
  h["llc"] = cache_size(3);
  h["omp_max_threads"] = omp_get_max_threads();
  const hwc::Probe& pmu = hwc::cached_probe();
  h["pmu_available"] = pmu.available;
  h["pmu_reason"] = pmu.reason;
  h["compiler"] = std::string(__VERSION__);
  h["build_type"] = RPERF_BENCH_BUILD_TYPE;
  return h;
}

/// A workload's result as the --json document stores it.
json::Object result_object(const WorkloadResult& r) {
  json::Object o;
  o["attempted"] = r.attempted;
  o["failed"] = r.failed;
  o["correct"] = r.failed == 0;
  json::Array errors;
  for (const auto& e : r.errors) errors.emplace_back(e);
  o["errors"] = std::move(errors);
  o["metrics"] = r.metrics.to_object();
  return o;
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Body of the workload process: run, then send the result (and the
/// traced pass's spans) as one JSON document down `fd`.
[[noreturn]] void child_main(int fd, int id, const std::string& name,
                             Options opt) {
  WorkloadResult r;
  std::unique_ptr<SpanRecorder> rec;
  if (opt.trace) rec = std::make_unique<SpanRecorder>(id);
  opt.workdir += "/" + name + "-" + std::to_string(::getpid());
  try {
    fs::create_directories(opt.workdir);
    if (name == "store_ledger") {
      run_store_ledger(opt, rec.get(), r);
    } else {
      run_sweep_workload(name, opt, rec.get(), r);
    }
  } catch (const std::exception& e) {
    r.fail(std::string("workload aborted: ") + e.what());
  }
  std::error_code ec;
  fs::remove_all(opt.workdir, ec);
  if (r.attempted == 0) r.attempted = 1;
  r.metrics.set("peak_rss_mb", peak_rss_mb());
  r.metrics.set("bench.fail_frac", static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted));
  json::Object o = result_object(r);
  if (rec) o["spans"] = rec->chrome_events();
  const bool ok = write_all(fd, json::Value(std::move(o)).dump());
  ::close(fd);
  std::fflush(stderr);
  ::_exit(ok ? 0 : 3);
}

/// Run workload `name` in a child process; returns its result object and
/// moves its spans into `spans`.
json::Object run_in_child(int id, const std::string& name, const Options& opt,
                          json::Array& spans) {
  auto failed = [](const std::string& why) {
    WorkloadResult r;
    r.attempted = 1;
    r.fail(why);
    r.metrics.set("bench.fail_frac", 1.0);
    return result_object(r);
  };
  int fds[2];
  if (::pipe(fds) != 0) {
    return failed("pipe: " + std::string(std::strerror(errno)));
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], id, name, opt);
  }
  ::close(fds[1]);
  std::string payload;
  if (pid > 0) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      payload.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fds[0]);
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return failed("workload process failed (status " + std::to_string(status) +
                  ")");
  }
  try {
    json::Value v = json::Value::parse(payload);
    json::Object& o = v.as_object();
    if (const auto it = o.find("spans"); it != o.end()) {
      for (auto& e : it->second.as_array()) spans.push_back(std::move(e));
      o.erase(it);
    }
    return std::move(o);
  } catch (const std::exception& e) {
    return failed(std::string("unreadable workload result: ") + e.what());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: rperf_bench [--workload all|NAME] [--seed N] "
               "[--seconds S]\n"
               "                   [--json PATH] [--trace PATH] "
               "[--workdir DIR] [--smoke]\n"
               "workloads: sweep_inproc sweep_pooled kernels_on "
               "store_ledger\n");
  return 2;
}

}  // namespace
}  // namespace rperf::bench

int main(int argc, char** argv) {
  using namespace rperf;
  using namespace rperf::bench;

  Options opt;
  opt.workdir = ".bench_build/work";
  std::string workload = "all";
  std::string json_path;
  std::string trace_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--json") {
        json_path = value();
      } else if (a == "--trace") {
        trace_path = value();
        opt.trace = true;
      } else if (a == "--workdir") {
        opt.workdir = value();
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rperf_bench: %s\n", e.what());
    return usage();
  }
  std::vector<std::string> names;
  if (workload == "all") {
    names = kWorkloads;
  } else {
    for (const auto& n : kWorkloads) {
      if (n == workload) names.push_back(n);
    }
    if (names.empty()) return usage();
  }
  if (opt.smoke) opt.seconds = std::min(opt.seconds, 1.0);

  const json::Object host = host_descriptor();
  std::printf("host %s\n", json::Value(host).dump().c_str());
  std::printf("seed %llu seconds %g smoke %d trace %d\n",
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.smoke ? 1 : 0, opt.trace ? 1 : 0);

  json::Object workloads;
  json::Array events;
  bool correct = true;
  for (std::size_t id = 0; id < names.size(); ++id) {
    const std::string& name = names[id];
    std::fprintf(stderr, "rperf_bench: running %s\n", name.c_str());
    json::Object r = run_in_child(static_cast<int>(id), name, opt, events);
    for (const auto& e : r.at("errors").as_array()) {
      std::fprintf(stderr, "rperf_bench: %s: FAIL %s\n", name.c_str(),
                   e.as_string().c_str());
    }
    const json::Value& metrics = r.at("metrics");
    auto print = [&](const MetricDef& d) {
      std::printf("%s %s %.17g %s\n", name.c_str(), d.name,
                  metrics.at(d.name).at("value").as_number(), d.unit);
    };
    for (const MetricDef& d : kEndToEnd) print(d);
    for (const MetricDef& d : kPerLayer) print(d);
    std::printf("%s attempted %.0f failed %.0f\n", name.c_str(),
                r.at("attempted").as_number(), r.at("failed").as_number());
    correct = correct && r.at("correct").as_bool();
    workloads[name] = std::move(r);
  }

  if (!json_path.empty()) {
    json::Object doc;
    doc["host"] = host;
    doc["seed"] = opt.seed;
    doc["seconds"] = opt.seconds;
    doc["smoke"] = opt.smoke;
    doc["traced"] = opt.trace;
    doc["correct"] = correct;
    doc["workloads"] = std::move(workloads);
    std::ofstream out(json_path);
    out << json::Value(std::move(doc)).dump(1) << '\n';
    if (!out) {
      std::fprintf(stderr, "rperf_bench: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  if (opt.trace) {
    json::Object trace;
    trace["traceEvents"] = std::move(events);
    trace["displayTimeUnit"] = "ms";
    trace["otherData"] = host;
    std::ofstream out(trace_path);
    out << json::Value(std::move(trace)).dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "rperf_bench: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  std::printf("rperf_bench: %s\n", correct ? "all checks passed"
                                           : "CORRECTNESS CHECKS FAILED");
  return correct ? 0 : 1;
}
