// parallel.h — shard-and-merge execution for the study pipeline.
//
// The paper's aggregate analyses are shard-and-merge by construction: every
// analyzer consumes independent per-probe (or per-log) units and reduces
// them into mergeable accumulators. This header provides the two pieces the
// pipeline needs to exploit that:
//
//  * a sink concept (`MergeableAnalyzer` / `SinkOf`) every analyzer
//    implements: add(item), merge(other&&), finalize(). The observability
//    layer's per-shard buffer (obs::MetricsSink) satisfies the same
//    concept and rides the same ordered reduction, which is why enabling
//    metrics adds no locks to the hot path and keeps counter totals
//    identical for every thread count;
//  * a `ShardExecutor` — a fixed thread pool (no work stealing) whose
//    threads claim indexed tasks from one counter. The pipeline cuts each
//    round into many more contiguous chunks than threads and hands them
//    out largest estimated cost first; each chunk owns a private analyzer
//    set, and the caller folds the chunks back in index order afterwards,
//    so results are byte-identical to the serial run regardless of thread
//    count or scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"

namespace dynamips::core {

/// An analyzer whose state can be combined with another instance's and
/// sealed once ingestion is done. merge() takes an rvalue: the argument is
/// consumed (its vectors may be spliced out) and must not be reused.
template <typename A>
concept MergeableAnalyzer = requires(A a, A other) {
  a.merge(std::move(other));
  a.finalize();
};

/// A mergeable analyzer that ingests items of a particular type.
template <typename A, typename Item>
concept SinkOf = MergeableAnalyzer<A> && requires(A a, const Item& item) {
  a.add(item);
};

/// A mergeable analyzer whose finalized results can be read out without
/// consuming the accumulator: snapshot() returns a self-contained value
/// (sorted, inferred, CSV-emittable) and the analyzer keeps accepting
/// add()/merge() afterwards. Two consecutive snapshots with no adds in
/// between are equal, and a snapshot after batches B1..Bk equals a one-shot
/// finalize over their concatenation — the contract the streaming pipeline
/// re-finalizes on.
template <typename A>
concept SnapshotAnalyzer = MergeableAnalyzer<A> && requires(const A a) {
  a.snapshot();
};

/// One contiguous slice of the work-item index space.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Resolve a `threads` knob: 0 means "use all hardware threads".
inline unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

/// Partition [0, count) into at most `shards` contiguous, near-equal
/// ranges (never more ranges than items; a single empty range for count 0).
/// The pipeline uses it for layout only — a process's `--shard i/N` slice
/// and a fresh run's checkpoint ranges — never to size the dispatch.
/// Contiguity is what keeps sharded output identical to the serial run:
/// concatenating per-range append-order vectors in range order reproduces
/// the serial append order exactly.
inline std::vector<ShardRange> shard_ranges(std::size_t count,
                                            unsigned shards) {
  std::size_t n = shards ? shards : 1;
  if (n > count) n = count ? count : 1;
  std::vector<ShardRange> out;
  out.reserve(n);
  std::size_t base = count / n, extra = count % n, begin = 0;
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t len = base + (s < extra ? 1 : 0);
    out.push_back({begin, begin + len});
    begin += len;
  }
  return out;
}

/// Fixed-size thread pool dispatching indexed tasks. Deliberately
/// work-stealing-free: tasks are claimed from a single counter, one at a
/// time and in index order, so a caller that numbers its tasks by
/// descending cost gets longest-first scheduling. The pool promises no
/// completion order — determinism comes from per-task state plus the
/// caller's ordered reduction, not from scheduling. With `threads == 1` no
/// worker threads exist and dispatch() runs inline on the caller,
/// reproducing the serial path exactly (and making `threads = 1` safe for
/// analyzers that are not thread-safe).
class ShardExecutor {
 public:
  /// `threads == 0` resolves to std::thread::hardware_concurrency().
  explicit ShardExecutor(unsigned threads = 0)
      : threads_(resolve_threads(threads)) {
    workers_.reserve(threads_ - 1);
    for (unsigned t = 0; t + 1 < threads_; ++t)
      workers_.emplace_back([this, t] { worker_loop(t + 1); });
  }

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  ~ShardExecutor() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  unsigned thread_count() const { return threads_; }

  /// Run task(lane, 0) .. task(lane, n_tasks - 1) across the pool; the
  /// calling thread participates. `lane` in [0, thread_count()) names the
  /// thread running the task — 0 is the caller, worker w is lane w + 1 — so
  /// per-lane accumulators need no lock. Returns once every task finished.
  /// The first exception thrown by any task is rethrown here (remaining
  /// tasks still run).
  void dispatch(std::size_t n_tasks,
                const std::function<void(unsigned, std::size_t)>& task) {
    if (n_tasks == 0) return;
    if (workers_.empty() || n_tasks == 1) {
      // Same drain-then-rethrow contract as the pooled path: a throwing
      // task never leaves later tasks unexecuted.
      std::exception_ptr first;
      for (std::size_t i = 0; i < n_tasks; ++i) {
        try {
          task(0, i);
        } catch (...) {
          if (!first) first = std::current_exception();
        }
      }
      if (first) std::rethrow_exception(first);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = &task;
      next_ = 0;
      end_ = n_tasks;
      pending_ = n_tasks;
      error_ = nullptr;
      ++generation_;
    }
    work_cv_.notify_all();
    run_tasks(0);
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

  /// Run task(0) .. task(n_tasks - 1) across the pool, as above.
  void dispatch(std::size_t n_tasks,
                const std::function<void(std::size_t)>& task) {
    dispatch(n_tasks, [&task](unsigned, std::size_t i) { task(i); });
  }

  /// Exception-safe dispatch: a throwing shard task is captured on its
  /// worker (never reaching std::terminate), the remaining work is still
  /// drained, and the first failure comes back as a Status instead of an
  /// exception — the error-propagation contract of the file-driven study
  /// entrypoints. Takes either task form dispatch() does.
  template <typename Task>
  Status try_dispatch(std::size_t n_tasks, const Task& task) {
    try {
      dispatch(n_tasks, task);
    } catch (const std::exception& e) {
      return Status(StatusCode::kInternal,
                    std::string("shard task failed: ") + e.what());
    } catch (...) {
      return Status(StatusCode::kInternal,
                    "shard task failed with a non-standard exception");
    }
    return Status::Ok();
  }

 private:
  // Claim-and-run loop shared by the caller and the workers. A claimed
  // index keeps pending_ > 0 until it completes, so `job_` (which points
  // into dispatch()'s frame) stays alive for every claimed task.
  void run_tasks(unsigned lane) {
    while (true) {
      std::size_t idx;
      const std::function<void(unsigned, std::size_t)>* job;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (next_ >= end_) return;
        idx = next_++;
        job = job_;
      }
      try {
        (*job)(lane, idx);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  void worker_loop(unsigned lane) {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      run_tasks(lane);
    }
  }

  unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned, std::size_t)>* job_ = nullptr;
  std::size_t next_ = 0;
  std::size_t end_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace dynamips::core
