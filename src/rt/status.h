// The runtime's status vocabulary — and the ONE place its names are spelled.
//
// Why a root job ended early (CancelReason), the lifecycle state of one
// execution (ExecStatus), and the terminal report an execution handle gives
// back (Status) all live here, below every consumer: the scheduler stores a
// CancelReason in each RootJob, the api layer re-exports ExecStatus/Status
// as its public types, the trace Chrome exporter labels kCancel events,
// bench_serving prints terminal states, and the wire protocol (src/net/)
// ships them to remote clients. Each of those used to be one string-literal
// site away from disagreeing about how "deadline_exceeded" is spelled;
// exec_status_name()/status_name() are now the single source. The hook
// that announces a terminal state (CompletionHook) lives here too, beside
// the states it announces.
#pragma once

#include <cstdint>

namespace nabbitc::rt {

/// Why a root job ended early. Stored in RootJob::cancel; 0 (kNone) means
/// the job ran (or is running) to normal completion.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kRequested = 1,  // client called cancel()
  kDeadline = 2,   // the job's absolute deadline passed
};

/// Lifecycle state of one execution. The three non-running values are
/// terminal; exactly one of them is reported once wait() returns.
enum class ExecStatus : std::uint8_t {
  kRunning = 0,           // not yet done (status() before completion)
  kCompleted = 1,         // every node computed; the sink holds its result
  kCancelled = 2,         // cancel() landed before the sink computed
  kDeadlineExceeded = 3,  // the deadline landed before the sink computed
};

/// The terminal state a cancel reason maps to (kRequested and the
/// never-cancelled kNone both render as kCancelled — callers only ask once
/// an early end is already a fact).
inline constexpr ExecStatus exec_status_of(CancelReason r) noexcept {
  return r == CancelReason::kDeadline ? ExecStatus::kDeadlineExceeded
                                      : ExecStatus::kCancelled;
}

inline constexpr const char* exec_status_name(ExecStatus s) noexcept {
  switch (s) {
    case ExecStatus::kRunning: return "running";
    case ExecStatus::kCompleted: return "completed";
    case ExecStatus::kCancelled: return "cancelled";
    case ExecStatus::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "?";
}

/// Terminal report of one execution (api::Execution::status()).
struct Status {
  ExecStatus state = ExecStatus::kRunning;
  /// Nodes whose compute() was skipped by cancellation/deadline (0 for a
  /// completed execution). Dynamic-spec submissions additionally stop
  /// discovering nodes on cancellation; nodes never created are not
  /// counted here.
  std::uint64_t skipped_nodes = 0;
};

inline constexpr const char* status_name(const Status& s) noexcept {
  return exec_status_name(s.state);
}

/// Completion notification for one submission: a plain function pointer
/// plus an opaque context, so arming it is two stores and no allocation.
/// Contract (api::SubmitOptions::on_complete is the public spelling):
///
///   * it fires exactly once per submission, in every terminal state, and
///     only AFTER the job's `done` flag is published — on the worker that
///     finished the root (Scheduler::finish_root), or, for an inline plan
///     replay, on the submitting thread before submit() returns;
///   * it must not block, and it gets only `ctx`: the job and its handle
///     may already be recycled by the time it runs;
///   * `ctx` must stay alive until the call returns. Since the call comes
///     after `done`, an owner that tears down on seeing `done` must also
///     rendezvous with the hook itself — e.g. count armed hooks, make the
///     decrement the hook's last access to `ctx`, and wait for zero before
///     freeing it (net::Session does exactly this).
struct CompletionHook {
  void (*fn)(void* ctx) noexcept = nullptr;
  void* ctx = nullptr;

  void fire() const noexcept {
    if (fn != nullptr) fn(ctx);
  }
};

}  // namespace nabbitc::rt
