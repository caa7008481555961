// supervise.h — self-healing supervisor for unattended study runs.
//
// The exit-code protocol (0 done, 3 interrupted-but-resumable, else
// failed) makes a killed run *recoverable*; this header makes recovery
// *unattended*. `dynamips_study --supervise` spawns the real run as a
// child process and the supervisor loop here:
//
//   * restarts a crashed/killed child with capped exponential backoff,
//     re-injecting `--resume-from` whenever a durable checkpoint exists —
//     so 3x SIGKILL mid-stream still converges to CSVs byte-identical to
//     an uninterrupted run (gated by tests/soak/supervise-soak.sh);
//   * watches liveness via a heartbeat file the child refreshes (a child
//     whose heartbeat goes stale is hung, not slow) and progress via the
//     checkpoint high-water mark (a live child whose checkpoint stops
//     advancing is stalled); either trips a hard kill + restart;
//   * detects crash loops — N failures inside a sliding window of T with
//     no intervening progress — and gives up with a diagnosis naming the
//     last durable checkpoint, instead of flapping forever;
//   * never restarts: clean success (exit 0), usage errors (exit 2, a
//     restart would loop on the same bad flag), or an operator stop (the
//     supervisor forwards SIGTERM and exits with the child's code).
//
// Determinism: the loop takes its clock, sleep, progress and stop
// functions from `SuperviseHooks`, so tests drive the whole policy —
// backoff sequence, window expiry, exact give-up count — under a fake
// clock with a fake child (tests/test_supervise.cpp). The real process
// runner (`ProcessChild`, fork/exec/waitpid) lives behind the same
// interface.
//
// Every supervisor action counts a `supervise.*` metric; the tool also
// forwards launch/restart counts to the child via environment so the
// child's `/v1/metricsz` shows the supervision history.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"

namespace dynamips::core {

struct SuperviseConfig {
  /// First restart delay; doubles per consecutive failure.
  std::uint64_t backoff_base_ms = 500;
  /// Backoff ceiling.
  std::uint64_t backoff_max_ms = 30000;
  /// Crash-loop detector: give up after this many failures inside
  /// `crash_loop_window_ms` with no intervening progress. 0 disables
  /// (restart forever).
  std::uint64_t crash_loop_failures = 5;
  std::uint64_t crash_loop_window_ms = 60000;
  /// Kill + restart a child whose progress token stops changing for this
  /// long. 0 disables (streams may legitimately idle between batches).
  std::uint64_t stall_timeout_ms = 0;
  /// Kill + restart a child whose heartbeat file goes stale for this
  /// long. 0 disables.
  std::uint64_t heartbeat_timeout_ms = 0;
  /// Child poll interval while waiting for exit.
  std::uint64_t poll_ms = 100;
  /// Grace between SIGTERM and SIGKILL on operator stop.
  std::uint64_t term_grace_ms = 10000;
};

/// Pure restart policy — deterministic given the timestamps fed to it.
class RestartPolicy {
 public:
  explicit RestartPolicy(const SuperviseConfig& config) : config_(config) {}

  /// Record a failure at `now_ms`; returns the backoff to sleep before
  /// the next launch: min(base << (consecutive-1), max).
  std::uint64_t on_failure(std::uint64_t now_ms);

  /// Durable progress happened (checkpoint high-water mark advanced):
  /// clear the failure history — a run that keeps advancing between
  /// crashes is healing, not looping.
  void on_progress();

  /// True once `crash_loop_failures` failures fall inside the trailing
  /// `crash_loop_window_ms` — trips at exactly N, not N+1.
  bool crash_looping(std::uint64_t now_ms) const;

  std::uint64_t consecutive_failures() const { return consecutive_; }

 private:
  SuperviseConfig config_;
  std::uint64_t consecutive_ = 0;
  std::deque<std::uint64_t> failures_;  // timestamps of recent failures
};

/// How one child run ended.
struct ChildOutcome {
  int exit_code = 0;
  int term_signal = 0;  ///< nonzero when killed by a signal
};

/// One restartable child. start() may be called again after an exit was
/// observed through poll().
class ChildProcess {
 public:
  virtual ~ChildProcess() = default;
  /// Launch with per-run extras (e.g. {"--resume-from", path}) appended
  /// to the base argv, and per-run environment overrides.
  virtual Status start(
      const std::vector<std::string>& extra_args,
      const std::vector<std::pair<std::string, std::string>>& extra_env) = 0;
  /// True once the child exited (outcome filled, child reaped).
  virtual bool poll(ChildOutcome* out) = 0;
  /// Request termination: SIGTERM (hard=false) or SIGKILL (hard=true).
  virtual void terminate(bool hard) = 0;
};

/// Real fork/exec/waitpid runner. argv[0] is the executable path.
class ProcessChild : public ChildProcess {
 public:
  explicit ProcessChild(std::vector<std::string> argv);
  ~ProcessChild() override;

  Status start(const std::vector<std::string>& extra_args,
               const std::vector<std::pair<std::string, std::string>>&
                   extra_env) override;
  bool poll(ChildOutcome* out) override;
  void terminate(bool hard) override;

  /// Child pid while running, -1 otherwise (diagnostics/logs).
  long pid() const { return pid_; }

 private:
  std::vector<std::string> argv_;
  long pid_ = -1;
};

/// Injectable environment for the supervisor loop. Unset members get the
/// real defaults (steady clock, interruptible sleep, no stop, no
/// progress/heartbeat tracking, stderr logging).
struct SuperviseHooks {
  std::function<std::uint64_t()> clock_ms;
  std::function<void(std::uint64_t)> sleep_ms;
  /// Operator shutdown (the supervisor's own SIGINT/SIGTERM token).
  std::function<bool()> stop;
  /// Checkpoint path to resume from at the next launch; empty = fresh.
  std::function<std::string()> resume_path;
  /// Opaque progress token (e.g. hash of the checkpoint file's
  /// mtime+size): any change counts as forward progress. 0 = unknown.
  std::function<std::uint64_t()> progress;
  /// Milliseconds since the child's heartbeat file was last refreshed;
  /// negative = no heartbeat observed yet.
  std::function<std::int64_t()> heartbeat_age_ms;
  /// Human diagnosis of the last durable checkpoint for the give-up
  /// message (e.g. "last durable checkpoint: out/study.ckpt, 4 batches").
  std::function<std::string()> describe_checkpoint;
  std::function<void(const std::string&)> log;
  /// `supervise.*` counter destination; null disables.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SuperviseReport {
  int exit_code = 1;
  std::uint64_t launches = 0;
  std::uint64_t restarts = 0;
  std::uint64_t stall_kills = 0;
  bool gave_up = false;
  std::string diagnosis;  ///< filled on give-up / stop
};

/// Run the supervision loop until clean exit, usage error, operator stop,
/// or crash-loop give-up. Blocking; returns the outcome to report.
SuperviseReport supervise(ChildProcess& child, const SuperviseConfig& config,
                          const SuperviseHooks& hooks = {});

// ----------------------------------------------------------- child side

/// Heartbeat writer the *child* runs: a background thread rewriting
/// `path` every `interval_ms` so the supervisor can tell "hung" from
/// "slow". Stops (and joins) on destruction; the file is left behind —
/// its staleness is the signal.
class Heartbeat {
 public:
  Heartbeat() = default;
  ~Heartbeat() { stop(); }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void start(std::string path, std::uint64_t interval_ms = 1000);
  void stop();
  bool running() const { return thread_.joinable(); }

 private:
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Age of `path` in milliseconds by mtime; -1 when missing/unreadable.
std::int64_t file_age_ms(const std::string& path);

/// Opaque progress token for a file: mixes mtime and size, 0 when the
/// file is missing. Equality means "no observable progress".
std::uint64_t file_progress_token(const std::string& path);

}  // namespace dynamips::core
