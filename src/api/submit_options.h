// Per-submission control knobs and terminal execution status.
//
// A server embedding the runtime cannot treat every submission as equal and
// immortal: SubmitOptions attaches a priority lane, an optional absolute
// deadline, and a debug name to one submit() call, and Status is what the
// Execution handle reports once the submission reaches a terminal state.
//
// Semantics (see rt/scheduler.h for the mechanism):
//
//   * priority selects one of the scheduler's injection lanes. Workers
//     adopting queued roots prefer higher lanes, with starvation-bounded
//     draining — low-priority work still progresses under saturating
//     high-priority traffic, just slower.
//   * deadline_ns is an absolute now_ns() instant. Once it passes, the
//     execution is cancelled cooperatively with reason kDeadlineExceeded:
//     in-flight node computes finish, everything not yet started is
//     skipped. Deadlines are policed at cold scheduler boundaries (root
//     adoption/completion and waiters' timed sleeps), never on the steal
//     hot path.
//   * name is an optional label for diagnostics; the string is NOT copied
//     (keeping the default submit path allocation-free) and must outlive
//     the execution. nullptr = unnamed.
//   * on_complete is an optional push notification: a function pointer
//     plus a context, called exactly once when the execution reaches any
//     terminal state, after done() turns true. It runs on the worker that
//     finished the execution (or, for an inline replay, on the
//     submitting thread before submit() returns), so it must not block.
//     The context must outlive the call — which comes AFTER done(), so
//     waiting for done() alone does not license freeing it (see
//     rt::CompletionHook).
#pragma once

#include <chrono>
#include <cstdint>

#include "rt/status.h"
#include "support/timing.h"

namespace nabbitc::api {

/// Submission priority, highest first. Maps one-to-one onto the
/// scheduler's injection lanes (rt::Scheduler::kNumLanes).
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

inline const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Absolute deadline on the now_ns() clock; 0 = none. Build one with
  /// deadline_in() below.
  std::uint64_t deadline_ns = 0;
  /// Optional diagnostic label (not owned, not copied; must outlive the
  /// execution). nullptr = unnamed.
  const char* name = nullptr;
  /// Completion push; {nullptr, nullptr} = none. See the contract above.
  rt::CompletionHook on_complete{};
};

/// Absolute now_ns() deadline `d` from now — the convenient way to fill
/// SubmitOptions::deadline_ns: `so.deadline_ns = deadline_in(5ms);`.
inline std::uint64_t deadline_in(std::chrono::nanoseconds d) noexcept {
  return now_ns() + static_cast<std::uint64_t>(d.count() > 0 ? d.count() : 0);
}

/// Lifecycle state / terminal report of one execution, their canonical
/// name strings, and the completion hook. Defined once in rt/status.h (the
/// trace exporter and the wire protocol render the same vocabulary);
/// re-exported here as the public api:: spelling.
using rt::CompletionHook;
using rt::exec_status_name;
using rt::ExecStatus;
using rt::Status;
using rt::status_name;

}  // namespace nabbitc::api
