#include "faults/injector.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <thread>

#include "sandbox/protocol.hpp"

namespace rperf::faults {

namespace {

bool matches(const FaultSpec& spec, const std::string& kernel) {
  return !kernel.empty() && (spec.kernel == "*" || spec.kernel == kernel);
}

FaultKind kind_from_string(const std::string& s) {
  if (s == "alloc") return FaultKind::Alloc;
  if (s == "throw") return FaultKind::Throw;
  if (s == "slow") return FaultKind::Slow;
  if (s == "corrupt") return FaultKind::Corrupt;
  if (s == "segv") return FaultKind::Segv;
  if (s == "abort") return FaultKind::Abort;
  if (s == "oom") return FaultKind::Oom;
  if (s == "hang") return FaultKind::Hang;
  if (s == "protocorrupt") return FaultKind::ProtocolCorrupt;
  if (s == "shortwrite") return FaultKind::ShortWrite;
  if (s == "enospc") return FaultKind::Enospc;
  if (s == "fsyncfail") return FaultKind::FsyncFail;
  if (s == "tornseg") return FaultKind::TornSeg;
  if (s == "idxcorrupt") return FaultKind::IndexCorrupt;
  throw std::invalid_argument(
      "faults: unknown fault kind '" + s +
      "' (want alloc|throw|slow|corrupt|segv|abort|oom|hang|protocorrupt|"
      "shortwrite|enospc|fsyncfail|tornseg|idxcorrupt)");
}

/// Exhaust memory the way a runaway kernel would: allocate and touch
/// chunks until the allocator fails (fast under RLIMIT_AS), with a hard
/// cap so an unlimited process still terminates deterministically. Exits
/// abruptly — no unwinding — mirroring a kernel OOM kill.
[[noreturn]] void simulate_oom() {
  constexpr std::size_t kChunk = 64u << 20;      // 64 MiB per allocation
  constexpr std::size_t kCap = 256u << 20;       // stop after 256 MiB
  for (std::size_t total = 0; total < kCap; total += kChunk) {
    auto* p = static_cast<volatile char*>(::operator new(kChunk, std::nothrow));
    if (p == nullptr) break;
    for (std::size_t i = 0; i < kChunk; i += 4096) p[i] = 1;  // fault pages
  }
  std::_Exit(sandbox::kOomExitCode);
}

/// Wedge the process like a deadlocked kernel: sleep in small increments
/// so SIGTERM/SIGKILL land promptly, with a 10-minute safety valve in
/// case no one ever kills us.
[[noreturn]] void simulate_hang() {
  for (int i = 0; i < 6000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::_Exit(1);
}

/// Parse the optional ':' argument into the spec.
void parse_arg(FaultSpec& spec, const std::string& arg,
               const std::string& entry) {
  auto bad = [&](const char* why) {
    throw std::invalid_argument("faults: bad argument '" + arg + "' in '" +
                                entry + "': " + why);
  };
  if (arg.empty()) bad("empty argument after ':'");
  if (arg[0] == 'p') {
    // p-form: fire each occurrence with PERCENT% probability.
    std::size_t pos = 0;
    double pct = 0.0;
    try {
      pct = std::stod(arg.substr(1), &pos);
    } catch (const std::exception&) {
      bad("expected pPERCENT");
    }
    if (pos + 1 != arg.size() || pct < 0.0 || pct > 100.0) {
      bad("percent must be a number in [0, 100]");
    }
    spec.probability = pct / 100.0;
    return;
  }
  std::size_t pos = 0;
  long value = 0;
  try {
    value = std::stol(arg, &pos);
  } catch (const std::exception&) {
    bad("expected COUNT, DELAYms, or pPERCENT");
  }
  if (value < 0) bad("value must be >= 0");
  const std::string suffix = arg.substr(pos);
  if (suffix == "ms") {
    if (spec.kind != FaultKind::Slow) bad("'ms' only applies to slow@");
    spec.delay_ms = static_cast<int>(value);
  } else if (suffix.empty()) {
    if (spec.kind == FaultKind::Slow) {
      spec.delay_ms = static_cast<int>(value);
    } else {
      spec.budget = static_cast<int>(value);
    }
  } else {
    bad("unexpected trailing characters");
  }
}

}  // namespace

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::Alloc: return "alloc";
    case FaultKind::Throw: return "throw";
    case FaultKind::Slow: return "slow";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Segv: return "segv";
    case FaultKind::Abort: return "abort";
    case FaultKind::Oom: return "oom";
    case FaultKind::Hang: return "hang";
    case FaultKind::ProtocolCorrupt: return "protocorrupt";
    case FaultKind::ShortWrite: return "shortwrite";
    case FaultKind::Enospc: return "enospc";
    case FaultKind::FsyncFail: return "fsyncfail";
    case FaultKind::TornSeg: return "tornseg";
    case FaultKind::IndexCorrupt: return "idxcorrupt";
  }
  return "?";
}

bool is_process_fatal(FaultKind k) {
  return k == FaultKind::Segv || k == FaultKind::Abort ||
         k == FaultKind::Oom || k == FaultKind::Hang ||
         k == FaultKind::ProtocolCorrupt;
}

std::vector<FaultSpec> Injector::parse(const std::string& spec) {
  std::string body = spec;
  if (body.rfind("faults=", 0) == 0) body = body.substr(7);
  std::vector<FaultSpec> out;
  if (body.empty()) return out;

  std::istringstream is(body);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    const std::size_t at = entry.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("faults: entry '" + entry +
                                  "' missing '@kernel'");
    }
    FaultSpec fs;
    fs.kind = kind_from_string(entry.substr(0, at));
    const std::size_t colon = entry.find(':', at + 1);
    fs.kernel = entry.substr(at + 1, colon == std::string::npos
                                         ? std::string::npos
                                         : colon - at - 1);
    if (fs.kernel.empty()) {
      throw std::invalid_argument("faults: entry '" + entry +
                                  "' has an empty kernel name");
    }
    if (colon != std::string::npos) {
      parse_arg(fs, entry.substr(colon + 1), entry);
    }
    if (fs.kind == FaultKind::Slow && fs.delay_ms == 0) {
      throw std::invalid_argument("faults: slow@ entry '" + entry +
                                  "' needs a delay, e.g. slow@K:50ms");
    }
    out.push_back(std::move(fs));
  }
  return out;
}

void Injector::configure(const std::string& spec, std::uint32_t seed) {
  specs_ = parse(spec);
  rng_state_ = seed ? seed : 1u;
  fires_ = 0;
}

void Injector::reset() {
  specs_.clear();
  current_cell_.clear();
  rng_state_ = 7u;
  fires_ = 0;
}

double Injector::next_unit() {
  rng_state_ = rng_state_ * 1664525u + 1013904223u;
  return (static_cast<double>(rng_state_ >> 8) + 0.5) / 16777216.0;
}

bool Injector::fire(FaultSpec& spec) {
  if (spec.budget == 0) return false;
  if (spec.probability < 1.0 && next_unit() >= spec.probability) return false;
  if (spec.budget > 0) --spec.budget;
  ++fires_;
  return true;
}

void Injector::on_lifecycle(const std::string& kernel) {
  for (auto& spec : specs_) {
    if (!matches(spec, kernel)) continue;
    switch (spec.kind) {
      case FaultKind::Throw:
        if (fire(spec)) {
          throw InjectedFault("injected fault: throw@" + kernel);
        }
        break;
      case FaultKind::Segv:
        if (fire(spec)) std::raise(SIGSEGV);
        break;
      case FaultKind::Abort:
        if (fire(spec)) std::abort();
        break;
      case FaultKind::Oom:
        if (fire(spec)) simulate_oom();
        break;
      case FaultKind::Hang:
        if (fire(spec)) simulate_hang();
        break;
      default:
        break;  // alloc/slow/corrupt fire from their own hooks
    }
  }
}

void Injector::on_alloc(std::size_t) {
  for (auto& spec : specs_) {
    if (spec.kind == FaultKind::Alloc && matches(spec, current_cell_) &&
        fire(spec)) {
      throw std::bad_alloc();
    }
  }
}

int Injector::slow_delay_ms(const std::string& kernel) {
  int delay = 0;
  for (auto& spec : specs_) {
    if (spec.kind == FaultKind::Slow && matches(spec, kernel) &&
        fire(spec)) {
      delay += spec.delay_ms;
    }
  }
  return delay;
}

long double Injector::corrupt_checksum(const std::string& kernel,
                                       long double checksum) {
  for (auto& spec : specs_) {
    if (spec.kind == FaultKind::Corrupt && matches(spec, kernel) &&
        fire(spec)) {
      return std::numeric_limits<long double>::quiet_NaN();
    }
  }
  return checksum;
}

bool Injector::fire_wire_fault(FaultKind kind, const std::string& kernel) {
  if (kind != FaultKind::ProtocolCorrupt) return false;
  for (auto& spec : specs_) {
    if (spec.kind == kind && matches(spec, kernel) && fire(spec)) {
      return true;
    }
  }
  return false;
}

bool Injector::fire_io_fault(FaultKind kind, const std::string& target) {
  if (kind != FaultKind::ShortWrite && kind != FaultKind::Enospc &&
      kind != FaultKind::FsyncFail && kind != FaultKind::TornSeg &&
      kind != FaultKind::IndexCorrupt) {
    return false;
  }
  for (auto& spec : specs_) {
    if (spec.kind == kind && matches(spec, target) && fire(spec)) {
      return true;
    }
  }
  return false;
}

std::string Injector::serialize_state() const {
  std::ostringstream os;
  os << rng_state_;
  for (const auto& spec : specs_) os << ',' << spec.budget;
  return os.str();
}

namespace {

/// Parse serialize_state() output; empty when malformed.
std::vector<long> parse_state(const std::string& state) {
  std::istringstream is(state);
  std::string field;
  std::vector<long> values;
  while (std::getline(is, field, ',')) {
    try {
      values.push_back(std::stol(field));
    } catch (const std::exception&) {
      return {};
    }
  }
  return values;
}

}  // namespace

void Injector::deserialize_state(const std::string& state) {
  const std::vector<long> values = parse_state(state);
  if (values.size() != specs_.size() + 1) return;  // malformed or mismatch
  rng_state_ = static_cast<std::uint32_t>(values[0]);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    specs_[i].budget = static_cast<int>(values[i + 1]);
  }
}

void Injector::fold_result_state(const std::string& state) {
  const std::vector<long> values = parse_state(state);
  if (values.size() != specs_.size() + 1) return;  // malformed or mismatch
  rng_state_ = static_cast<std::uint32_t>(values[0]);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    // Keep the smaller budget, reading -1 (unlimited) as infinity: a unit
    // spent on either side stays spent, and unlimited stays unlimited.
    const int theirs = static_cast<int>(values[i + 1]);
    int& ours = specs_[i].budget;
    if (ours < 0 || (theirs >= 0 && theirs < ours)) ours = theirs;
  }
}

void Injector::note_external_fire(FaultKind kind, const std::string& kernel) {
  for (auto& spec : specs_) {
    if (spec.kind == kind && matches(spec, kernel) && spec.budget > 0) {
      --spec.budget;
      ++fires_;
      return;
    }
  }
}

Injector& injector() {
  static Injector instance;
  return instance;
}

}  // namespace rperf::faults
