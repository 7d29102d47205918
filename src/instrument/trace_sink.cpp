#include "instrument/trace_sink.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>

namespace rperf::cali {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceSink& TraceSink::instance() {
  static TraceSink sink;
  return sink;
}

double TraceSink::now_sec() const {
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return static_cast<double>(steady_ns() - epoch) * 1e-9;
}

TraceSink::ThreadBuffer& TraceSink::local_buffer() {
  // One TLS read per call; the pointed-to buffer is owned by the registry
  // (and survives fork by address-space copy).
  thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<std::uint32_t>(buffers_.size());
    buf->records.reserve(1024);
    t_buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *t_buffer;
}

void TraceSink::append(ThreadBuffer& buf, const TraceRecord& rec) {
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.records.size() >= kMaxRecordsPerThread) {
    ++buf.dropped;
    return;
  }
  buf.records.push_back(rec);
  appended_.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t TraceSink::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

std::uint32_t TraceSink::thread_id() { return local_buffer().tid; }

std::uint32_t TraceSink::current_open_name() {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (!buf.open.empty()) return buf.open.back().first;
  return intern_untracked();
}

std::uint32_t TraceSink::intern_untracked() {
  static const std::uint32_t id = instance().intern("(untracked)");
  return id;
}

void TraceSink::begin(std::uint32_t name) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.open.emplace_back(name, now_sec());
}

void TraceSink::end() {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  const double t = now_sec();
  TraceRecord rec;
  {
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.open.empty()) return;  // unmatched end: Channel validates, we don't
    rec.name = buf.open.back().first;
    rec.t0 = buf.open.back().second;
    buf.open.pop_back();
    rec.depth = static_cast<std::int32_t>(buf.open.size());
  }
  rec.kind = TraceRecord::Kind::Span;
  rec.tid = buf.tid;
  rec.t1 = t;
  append(buf, rec);
}

void TraceSink::thread_span(std::uint32_t name, double t0, double t1) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  TraceRecord rec;
  rec.kind = TraceRecord::Kind::ThreadSpan;
  rec.name = name;
  rec.tid = buf.tid;
  rec.t0 = t0;
  rec.t1 = t1;
  append(buf, rec);
}

void TraceSink::counter(std::uint32_t name, double value) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  TraceRecord rec;
  rec.kind = TraceRecord::Kind::Counter;
  rec.name = name;
  rec.tid = buf.tid;
  rec.t0 = now_sec();
  rec.t1 = rec.t0;
  rec.value = value;
  append(buf, rec);
}

void TraceSink::note_parallel_instance(std::uint32_t name, double max_sec,
                                       double mean_sec, int threads) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  RegionThreadStats& s = stats_[name];
  ++s.instances;
  s.sum_max_sec += max_sec;
  s.sum_mean_sec += mean_sec;
  s.max_threads = std::max(s.max_threads, threads);
}

RegionThreadStats TraceSink::instance_stats(std::uint32_t name) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = stats_.find(name);
  return it == stats_.end() ? RegionThreadStats{} : it->second;
}

void TraceSink::calibrate() {
  // Price one record append (timestamp + locked push) so overhead
  // accounting can charge per record without timing every append twice.
  constexpr int kIters = 4096;
  ThreadBuffer scratch;
  scratch.records.reserve(kIters);
  const std::uint64_t start = steady_ns();
  for (int i = 0; i < kIters; ++i) {
    TraceRecord rec;
    rec.t0 = now_sec();
    rec.t1 = rec.t0;
    std::lock_guard<std::mutex> lock(scratch.mutex);
    scratch.records.push_back(rec);
  }
  per_record_cost_sec_ =
      static_cast<double>(steady_ns() - start) * 1e-9 / kIters;
}

void TraceSink::enable() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (auto& buf : buffers_) {
      std::lock_guard<std::mutex> bl(buf->mutex);
      buf->records.clear();
      buf->open.clear();
      buf->dropped = 0;
    }
    stats_.clear();
  }
  appended_.store(0, std::memory_order_relaxed);
  flush_cost_sec_ = 0.0;
  parent_offset_sec_ = 0.0;
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  calibrate();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceSink::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceSink::rezero_after_fork(const std::string& process_name) {
  // Runs in a single-threaded, freshly forked child. The inherited buffers
  // (including other threads' — their memory was copied) hold the parent's
  // records; drop them so the parent's work is not double-reported, and
  // remember how far into the parent's timeline this process was born.
  const double offset = parent_offset_sec_ + now_sec();
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto& buf : buffers_) {
    buf->records.clear();
    buf->open.clear();
    buf->dropped = 0;
  }
  stats_.clear();
  appended_.store(0, std::memory_order_relaxed);
  flush_cost_sec_ = 0.0;
  parent_offset_sec_ = offset;
  process_name_ = process_name;
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
}

double TraceSink::overhead_sec() const {
  return per_record_cost_sec_ *
             static_cast<double>(appended_.load(std::memory_order_relaxed)) +
         flush_cost_sec_;
}

TraceData TraceSink::flush() {
  const std::uint64_t start = steady_ns();
  TraceData out;
  out.pid = static_cast<int>(::getpid());
  out.clock_offset_sec = parent_offset_sec_;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    out.process_name = process_name_;
    out.names = names_;
    for (auto& buf : buffers_) {
      std::lock_guard<std::mutex> bl(buf->mutex);
      out.records.insert(out.records.end(), buf->records.begin(),
                         buf->records.end());
      out.dropped += buf->dropped;
      buf->records.clear();
      buf->dropped = 0;
    }
    for (const auto& [id, s] : stats_) {
      if (id < names_.size()) out.region_stats[names_[id]] = s;
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.t0 < b.t0;
            });
  flush_cost_sec_ += static_cast<double>(steady_ns() - start) * 1e-9;
  out.overhead_sec = overhead_sec();
  return out;
}

}  // namespace rperf::cali
