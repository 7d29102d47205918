// Pooled execution: the executor's cells on sandbox::WorkerPool workers.
// The parent dispatches each cell as a wire job, folds each result record
// into the same profiles, checkpoint and reports as in-process execution,
// and turns each worker death into a crash record, a retry or a
// quarantine. When no worker can be spawned, the cells left finish
// in-process.
#include <omp.h>

#include <algorithm>
#include <iostream>
#include <numeric>

#include "faults/injector.hpp"
#include "instrument/wire_codec.hpp"
#include "suite/cell_record.hpp"
#include "suite/executor.hpp"
#include "util/fnv1a.hpp"

namespace rperf::suite {

std::vector<std::size_t> pooled_dispatch_order(const std::vector<int>& cores,
                                               bool persistent) {
  std::vector<std::size_t> order(cores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (persistent) {
    std::stable_sort(order.begin(), order.end(),
                     [&cores](std::size_t a, std::size_t b) {
                       return cores[a] < cores[b];
                     });
  }
  return order;
}

std::string Executor::worker_run_cell(const std::string& payload) {
  RunResult r;
  int team = 0;
  std::string dispatch_state;
  decode_job(payload, r, team, dispatch_state);
  // Run with the team the supervisor admitted: one thread for a Seq cell
  // (its setUp fills and checksums go serial, bit-identically), the
  // in-process team for an OpenMP cell, which runs alone.
  if (team > 0) omp_set_num_threads(team);
  // The job carries the parent's injector state as of dispatch time, so a
  // retried cell sees spent budgets instead of re-firing the fault that
  // killed its first worker.
  faults::injector().deserialize_state(dispatch_state);

  cali::Channel scratch;
  KernelBase* kernel = find_kernel(r.kernel);
  if (kernel == nullptr) {
    r.status = RunStatus::Failed;
    r.error = "unknown kernel in job payload: " + r.kernel;
  } else {
    r.status = run_cell_once({kernel, r.variant, r.tuning, r.tuning_name},
                             scratch, r);
    sample_trace_counters();
  }

  // Post-job injector state rides back on every result so the parent's
  // fault schedule stays worker-count invariant.
  const std::string injector_state = faults::injector().serialize_state();

  // Wire fault: torn result. The frame goes out with a bad CRC; the
  // supervisor must reject the record and recycle this worker rather than
  // mis-parse it.
  if (faults::injector().fire_wire_fault(faults::FaultKind::ProtocolCorrupt,
                                         r.kernel)) {
    sandbox::WorkerPool::corrupt_next_frame();
  }
  return encode_cell_record(
      r, injector_state,
      r.status == RunStatus::Passed ? &scratch.profile() : nullptr);
}

void Executor::run_pooled(const std::vector<const Cell*>& cells) {
  struct PooledJob {
    const Cell* cell = nullptr;
    RunResult r;
    int attempts = 0;  // executions consumed (parent-authoritative)
    bool done = false;
  };

  std::vector<PooledJob> jobs;
  jobs.reserve(cells.size());
  for (const Cell* cell : cells) jobs.push_back({cell, start_result(*cell)});

  // --workers N keeps N workers across cells. Without it, --isolate
  // cell|kernel is one disposable worker, replaced whenever the affinity
  // key changes: keyed per cell, every cell gets a fresh process; keyed
  // per kernel, every kernel does.
  const bool disposable = params_.workers == 0;
  const bool key_per_cell =
      disposable && params_.isolate == IsolationMode::Cell;

  // Measured kernel loops must not preempt each other, so the pool admits
  // cells against a budget of the machine's cores: a Seq cell runs on one
  // thread and takes one core, an OpenMP cell runs the in-process team and
  // takes that many cores (all of them on a machine no wider than the
  // team). Reading the team size starts no OpenMP threads, so forking
  // stays safe.
  const int omp_team = omp_get_max_threads();
  auto team_of = [omp_team](VariantID v) {
    return is_openmp_variant(v) ? omp_team : 1;
  };

  // A job came back: requeue it while it has retries left, else settle it.
  auto settle = [&](PooledJob& p, bool retryable) {
    if (retryable && p.attempts <= params_.retries && !stopped_) {
      retry_backoff(p.attempts);
      return sandbox::Disposition::Retry;
    }
    finalize(p.r);
    p.done = true;
    return stopped_ ? sandbox::Disposition::Abort : sandbox::Disposition::Done;
  };

  sandbox::PoolClient client;
  client.on_worker_start = [] {
    cali::TraceSink& sink = cali::TraceSink::instance();
    if (sink.enabled()) sink.rezero_after_fork("rperf-worker");
  };
  client.run_job = [this](const std::string& payload) {
    return worker_run_cell(payload);
  };
  client.final_payload = [] {
    cali::TraceSink& sink = cali::TraceSink::instance();
    if (!sink.enabled()) return std::string();
    wire::Writer w;
    w.begin_blob();
    cali::trace_to_wire(sink.flush(), w);
    return w.take();
  };
  client.on_final = [this](const std::string& payload) {
    try {
      wire::Reader rd(payload);
      rd.expect_blob();
      worker_traces_.push_back(cali::trace_from_wire(rd));
    } catch (const std::exception&) {
      // Malformed chunk: the timeline loses one worker's spans; the
      // sweep's results are unaffected.
    }
  };
  client.before_dispatch = [&](sandbox::Job& job) {
    const PooledJob& p = jobs[job.id];
    // Current injector state, captured at dispatch — not enqueue — time,
    // so a retry after a fatal fire carries the decremented budget.
    job.payload = encode_job(p.r, team_of(p.cell->vid),
                             faults::injector().serialize_state());
  };
  client.on_result = [&](const sandbox::Job& job,
                         const std::string& result) -> sandbox::Disposition {
    PooledJob& p = jobs[job.id];
    p.r.attempts = ++p.attempts;
    try {
      std::string injector_state;
      std::optional<cali::Profile> profile;
      decode_cell_record(result, p.r, injector_state, profile);
      // Fold, not overwrite: this job may have been dispatched before
      // another worker's crash spent a budget it still carries.
      faults::injector().fold_result_state(injector_state);
      if (p.r.status == RunStatus::Passed && profile) {
        cali::merge(profiles_[{p.cell->vid, p.cell->tuning_name}], *profile);
      }
    } catch (const std::exception& e) {
      p.r.status = RunStatus::Crashed;
      p.r.error = std::string("malformed worker record: ") + e.what();
    }
    return settle(p, p.r.status == RunStatus::Failed ||
                         p.r.status == RunStatus::ChecksumInvalid);
  };
  client.on_failure = [&](const sandbox::Job& job,
                          const sandbox::JobFailure& f)
      -> sandbox::Disposition {
    PooledJob& p = jobs[job.id];
    p.r.attempts = ++p.attempts;
    classify_failure(f, params_.sandbox_mem_mb, p.r);
    const int crashes =
        ++crash_history_[cell_key(p.r.kernel, p.r.variant, p.r.tuning_name)]
              .crashes;
    const bool quarantined = crashes >= params_.quarantine_after;
    checkpoint_.append_crash(p.r, f, crashes, quarantined);

    // The worker died before reporting, so its injector state is lost;
    // consume the budget the fatal fault definitionally spent.
    if (faults::injector().active()) {
      if (const auto kind = implied_fault_kind(f, p.r.status)) {
        faults::injector().note_external_fire(*kind, p.r.kernel);
      }
    }
    return settle(p, !quarantined && (p.r.status == RunStatus::Crashed ||
                                      p.r.status == RunStatus::OutOfMemory));
  };

  sandbox::PoolConfig cfg;
  cfg.workers = disposable ? 1 : params_.workers;
  cfg.disposable = disposable;
  cfg.job_deadline_sec = params_.max_cell_seconds;
  cfg.address_space_bytes = params_.sandbox_mem_mb << 20;

  std::vector<int> cores;
  cores.reserve(jobs.size());
  for (const PooledJob& p : jobs) cores.push_back(team_of(p.cell->vid));
  const std::vector<std::size_t> order =
      pooled_dispatch_order(cores, !disposable);

  std::size_t next = 0;
  const auto source = [&]() -> std::optional<sandbox::Job> {
    if (stopped_ || next >= order.size()) return std::nullopt;
    sandbox::Job job;
    job.id = order[next++];
    const PooledJob& p = jobs[job.id];
    // Cells of one kernel share a key, steering them to the worker whose
    // allocator arenas already hold that kernel's size classes; a
    // disposable pool keyed per cell gives every cell a worker of its own.
    const std::string key =
        key_per_cell ? cell_key(p.r.kernel, p.r.variant, p.r.tuning_name)
                     : p.r.kernel;
    job.affinity = util::fnv1a64(key) | 1ull;  // odd: 0 means no affinity
    job.cores = cores[job.id];
    return job;  // payload is filled by before_dispatch
  };

  sandbox::PoolOutcome outcome = sandbox::PoolOutcome::Completed;
  sandbox::WorkerPool pool(cfg, client);
  if (!jobs.empty() && skip_reason().empty()) {
    cali::TraceSpan pool_span("worker-pool");
    outcome = pool.run(source);
  }
  facts_.pool = pool.stats();

  if (outcome == sandbox::PoolOutcome::SpawnFailed && skip_reason().empty()) {
    // Graceful degradation: the pool could not keep a single worker alive
    // (fork failure, respawn budgets exhausted). Finish the sweep
    // in-process rather than losing it. Safe with respect to the OpenMP
    // fork caveat — no parallel region has run in this process yet, and no
    // further forks follow. Crash containment is lost, and the run says
    // so: the "sandbox_degraded" metadata flag and each cell's record.
    facts_.degraded = true;
    std::cerr << "warning: worker pool unavailable ("
              << facts_.pool.spawn_failures
              << " spawn failures); degrading to in-process execution — "
                 "crash containment disabled for the rest of this sweep\n";
  }

  // Every planned cell gets a terminal record: after a degradation the
  // unresolved ones run in-process until a stop or interrupt; the rest
  // (interrupt, --no-keep-going abort) are recorded as skipped.
  for (PooledJob& p : jobs) {
    if (p.done) continue;
    if (facts_.degraded && skip_reason().empty()) {
      run_cell_in_process(*p.cell, p.attempts, p.r);
    } else {
      p.r.status = RunStatus::Skipped;
      p.r.error = skip_reason();
      if (p.r.error.empty()) {
        p.r.error = "not executed: worker pool unavailable";
      }
    }
    finalize(p.r);
  }
}

}  // namespace rperf::suite
