#include "counters/perf_event.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace rperf::hwc {

namespace {

/// The measured event group, leader first. Cache events use the
/// PERF_TYPE_HW_CACHE triple encoding (cache | (op << 8) | (result << 16)).
struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
  const char* papi_name;
};

constexpr std::uint64_t cache_config(std::uint64_t cache, std::uint64_t op,
                                     std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

const EventSpec kEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "PAPI_TOT_CYC"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "PAPI_TOT_INS"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS, "PAPI_BR_INS"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "PAPI_BR_MSP"},
    {PERF_TYPE_HW_CACHE,
     cache_config(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_MISS),
     "PAPI_L2_DCM"},
    {PERF_TYPE_HW_CACHE,
     cache_config(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_MISS),
     "PAPI_L3_TCM"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_REF_CPU_CYCLES, "PAPI_REF_CYC"},
};

int perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                    unsigned long flags) {
  return static_cast<int>(
      ::syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags));
}

perf_event_attr make_attr(const EventSpec& spec, bool leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  // The group starts disabled and is enabled once assembled, so every
  // member shares one time_enabled epoch.
  attr.disabled = leader ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                     PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

}  // namespace

Probe probe(const std::string& paranoid_path) {
  Probe p;
  // The paranoid level is advisory context for the reason string; the
  // trial open below is the authoritative answer (containers return
  // EACCES/ENOSYS regardless of the level, and level <= 2 still allows
  // self-profiling without kernel samples).
  {
    std::ifstream is(paranoid_path);
    int level = 0;
    if (is >> level) p.paranoid = level;
  }
  perf_event_attr attr = make_attr(kEvents[0], /*leader=*/true);
  const int fd = perf_event_open(&attr, 0, -1, -1, 0);
  if (fd >= 0) {
    ::close(fd);
    p.available = true;
    return p;
  }
  const int err = errno;
  std::ostringstream os;
  os << "perf_event_open failed: " << std::strerror(err);
  if (err == EACCES || err == EPERM) {
    os << " (perf_event_paranoid=" << p.paranoid
       << "; run `sysctl kernel.perf_event_paranoid=2` or grant "
          "CAP_PERFMON)";
  } else if (err == ENOSYS) {
    os << " (kernel or container without perf_event support)";
  } else if (err == ENOENT || err == ENODEV) {
    os << " (no PMU exposed to this machine; common in VMs and "
          "containers)";
  }
  p.reason = os.str();
  return p;
}

const Probe& cached_probe() {
  static const Probe p = probe();
  return p;
}

double scale_multiplexed(std::uint64_t raw, std::uint64_t time_enabled,
                         std::uint64_t time_running) {
  if (time_running == 0) return 0.0;
  if (time_running >= time_enabled) return static_cast<double>(raw);
  return static_cast<double>(raw) * static_cast<double>(time_enabled) /
         static_cast<double>(time_running);
}

const std::vector<std::string>& papi_event_names() {
  static const std::vector<std::string> names = {
      "PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_BR_MSP",
      "PAPI_L2_DCM",  "PAPI_L3_TCM",  "PAPI_REF_CYC"};
  return names;
}

void sample_to_wire(const Sample& s, wire::Writer& w) {
  w.put_str(s.source);
  w.put_u64(s.time_enabled_ns);
  w.put_u64(s.time_running_ns);
  w.put_f64(s.overhead_sec);
  w.put_u64(s.values.size());
  for (const auto& [name, value] : s.values) {
    w.put_str(name);
    w.put_f64(value);
  }
}

Sample sample_from_wire(wire::Reader& r) {
  Sample s;
  s.source = r.get_str();
  s.time_enabled_ns = r.get_u64();
  s.time_running_ns = r.get_u64();
  s.overhead_sec = r.get_f64();
  const std::uint64_t n = r.get_u64();
  r.check_count(n, 12);  // str ref (4) + f64 (8)
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.get_str();
    s.values[name] = r.get_f64();
  }
  return s;
}

PerfEventGroup::~PerfEventGroup() { close(); }

bool PerfEventGroup::open(std::string* error) {
  close();
  for (const EventSpec& spec : kEvents) {
    const bool leader = leader_fd_ < 0;
    perf_event_attr attr = make_attr(spec, leader);
    const int fd =
        perf_event_open(&attr, 0, -1, leader ? -1 : leader_fd_, 0);
    if (fd < 0) {
      if (leader) {
        if (error != nullptr) {
          *error = std::string("perf_event_open(") + spec.papi_name +
                   ") failed: " + std::strerror(errno);
        }
        return false;
      }
      continue;  // unsupported member (e.g. ref-cycles in a VM) — drop it
    }
    std::uint64_t id = 0;
    if (::ioctl(fd, PERF_EVENT_IOC_ID, &id) != 0) {
      ::close(fd);
      if (leader) {
        if (error != nullptr) {
          *error = std::string("PERF_EVENT_IOC_ID failed: ") +
                   std::strerror(errno);
        }
        return false;
      }
      continue;
    }
    if (leader) leader_fd_ = fd;
    fds_.push_back(fd);
    ids_.push_back(id);
    names_.push_back(spec.papi_name);
  }
  if (::ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
      ::ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    if (error != nullptr) {
      *error = std::string("perf group enable failed: ") +
               std::strerror(errno);
    }
    close();
    return false;
  }
  return true;
}

bool PerfEventGroup::read(Reading* out) {
  if (leader_fd_ < 0 || out == nullptr) return false;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
  // then {value, id} per event.
  struct {
    std::uint64_t nr;
    std::uint64_t time_enabled;
    std::uint64_t time_running;
    struct {
      std::uint64_t value;
      std::uint64_t id;
    } v[16];
  } buf;
  const ssize_t n = ::read(leader_fd_, &buf, sizeof(buf));
  if (n < 0 || static_cast<std::size_t>(n) < 3 * sizeof(std::uint64_t) ||
      buf.nr > 16) {
    close();
    return false;
  }
  out->time_enabled_ns = buf.time_enabled;
  out->time_running_ns = buf.time_running;
  out->values.assign(names_.size(), 0);
  // Match by PERF_FORMAT_ID: the kernel may order group members freely.
  for (std::uint64_t i = 0; i < buf.nr; ++i) {
    const auto it = std::find(ids_.begin(), ids_.end(), buf.v[i].id);
    if (it != ids_.end()) {
      out->values[static_cast<std::size_t>(it - ids_.begin())] =
          buf.v[i].value;
    }
  }
  return true;
}

void PerfEventGroup::close() {
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
  ids_.clear();
  names_.clear();
  leader_fd_ = -1;
}

machine::TMAFractions measured_tma(const counters::PAPICounters& c) {
  const auto get = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  machine::TMAFractions f;
  const double cycles = get("PAPI_TOT_CYC");
  if (!(cycles > 0.0)) return f;  // no observation: all-zero fractions

  // Documented attribution constants (see perf_event.hpp): a generic
  // 4-wide out-of-order core, ~20-cycle mispredict flush, ~12-cycle L2
  // and ~60-cycle beyond-LLC miss latencies.
  constexpr double kIssueWidth = 4.0;
  constexpr double kMispredictCycles = 20.0;
  constexpr double kL2MissCycles = 12.0;
  constexpr double kLlcMissCycles = 60.0;
  constexpr double kFetchBubbleFrac = 0.02;
  constexpr double kResteerCycles = 4.0;
  constexpr double kCoreFloorFrac = 0.01;

  const double ins = get("PAPI_TOT_INS");
  const double br_msp = get("PAPI_BR_MSP");
  const double l2_dcm = get("PAPI_L2_DCM");
  const double l3_tcm = get("PAPI_L3_TCM");

  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };

  f.retiring = clamp01(ins / (kIssueWidth * cycles));
  f.bad_speculation =
      std::min(clamp01(kMispredictCycles * br_msp / cycles),
               1.0 - f.retiring);

  const double rem = 1.0 - f.retiring - f.bad_speculation;
  // Split the non-retiring, non-speculation slots over the three stall
  // sources by estimated stall-cycle weight.
  const double fe_w = kResteerCycles * br_msp + kFetchBubbleFrac * cycles;
  const double mem_w = kL2MissCycles * l2_dcm + kLlcMissCycles * l3_tcm;
  const double issue_slack =
      std::max(cycles * (1.0 - ins / (kIssueWidth * cycles)), 0.0);
  const double core_w =
      std::max(issue_slack - mem_w - fe_w, kCoreFloorFrac * cycles);
  const double total_w = fe_w + mem_w + core_w;
  if (rem > 0.0 && total_w > 0.0) {
    f.frontend_bound = rem * fe_w / total_w;
    f.memory_bound = rem * mem_w / total_w;
    f.core_bound = rem * core_w / total_w;
  }
  return f;
}

Sample simulated_sample(const machine::KernelTraits& traits,
                        const machine::MachineModel& machine, double scale) {
  Sample s;
  s.source = "simulated";
  for (const auto& [name, value] : counters::simulate_papi(traits, machine)) {
    s.values[name] = value * scale;
  }
  return s;
}

}  // namespace rperf::hwc
