// Shared pieces of the perfbench workloads: run configuration, the metric
// report, latency summaries, the stage ledger, the span log of a traced
// run, and the host fingerprint.
//
// Every number here is measured from outside the library: the workloads
// time calls to public functions (net::Client/Server, api::Runtime,
// plan::GraphPlan, wl::Workload) and read counters the program already
// exports (Runtime::counters(), Server::stats()/metrics_msg()).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rt/counters.h"
#include "stream.h"
#include "support/rng.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics and spans instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (CSV); empty = keep in memory only.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `attempted` counts requests (or solves) of the
/// measured window only; warm-up is excluded. `failed` counts refused
/// (BUSY), timed-out, non-completed and wrong results; `wrong` is the
/// subset whose output did not verify, which makes the run incorrect.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  /// A set-up error: nothing was measured.
  std::string error;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const { return wrong == 0 && error.empty(); }
};

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- latency summaries ------------------------------------------------------

/// Nearest-rank percentile (support/stats.h's convention), p in [0, 1].
/// Takes a copy: callers keep their sample order.
double percentile(std::vector<double> v, double p);

/// End-to-end latency figures over one window of verified completions,
/// split into `classes` graph classes (shapes or solve families).
struct LatencySummary {
  std::vector<double> p50_by_class;  // microseconds; 0 for an empty class
  std::vector<double> mean_by_class;
  std::vector<std::uint64_t> count_by_class;
  /// The tail, over all classes. p95: solve-real completes a few hundred
  /// solves per run, so it is the highest percentile with at least ten
  /// samples beyond it on every workload, and serve-tcp's latencies have a
  /// second mode holding ~9% of requests, which puts p90 on a mode edge.
  double p95 = 0;
  /// Geometric mean of the per-class medians: every class weighs the
  /// same, so a slower small class moves it as much as a slower big one.
  double gmean_p50 = 0;
};

struct LatencySample {
  std::uint32_t cls = 0;
  float us = 0;
};

LatencySummary summarize(const std::vector<LatencySample>& samples,
                         std::uint32_t classes);
/// One stderr line per class: count, median and mean, in microseconds.
void print_classes(const LatencySummary& s, const std::vector<const char*>& names);

// --- the stage ledger ---------------------------------------------------------

/// One request class's latency split into disjoint stages (means, us).
/// Whatever the stages do not cover is the residual: time the benchmark
/// saw pass but no stage explains.
struct Ledger {
  struct Stage {
    std::string name;
    double mean_us = 0;
  };
  double latency_us = 0;
  std::vector<Stage> stages;

  double covered_us() const;
  double residual_us() const { return latency_us - covered_us(); }
  /// residual / latency; 0 when there was no latency to split.
  double residual_share() const;
  /// One line: "<label> latency=... <stage>=... residual=... (share%)".
  std::string format(const std::string& label) const;
};

// --- spans of a traced run ------------------------------------------------------

/// One span the benchmark recorded around a call into the library.
/// `parent` is the index into the same log of the span that caused it, or
/// kNoParent for a request's root span.
struct Span {
  static constexpr std::uint32_t kNoParent = ~0u;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = kNoParent;
  std::uint16_t name = 0;  // index into the owner's name table
};

/// Per-thread, fixed-capacity, in-memory span store. Spans past the
/// capacity are counted as dropped, never reallocated mid-run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 0) { spans_.reserve(capacity); }

  /// Returns the span's index (for children), or Span::kNoParent if dropped.
  std::uint32_t add(std::uint16_t name, std::uint64_t request,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t parent = Span::kNoParent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return Span::kNoParent;
    }
    spans_.push_back({start_ns, end_ns, request, parent, name});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Writes every log's spans to `path` as CSV
/// (log,request,name,parent,start_ns,end_ns), `names` resolving Span::name,
/// and says on stderr where they went and how many were dropped. An empty
/// path writes nothing.
void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 const std::vector<const char*>& names);

// --- host -----------------------------------------------------------------------

/// CPU model, logical CPUs and kernel release, plus a fixed calibration op
/// timed in this run, so numbers from different hosts compare relative to
/// it. Workers are never pinned by this benchmark (RuntimeOptions default).
struct HostInfo {
  std::string cpu;
  unsigned nproc = 0;
  std::string kernel;
  bool pinned = false;
  double calib_ns = 0;  // one dependent SplitMix64 step, best of 5
};

HostInfo host_info();
std::string host_json(const HostInfo& h);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Nanoseconds on the library's clock (support/timing.h), which is also the
/// clock of Execution's submit/dispatch/complete stamps.
std::uint64_t now();

// --- closed-loop callers ---------------------------------------------------------------

/// The completions that landed in one whole second of a phase.
struct SecondBin {
  std::uint64_t n = 0;
  std::uint64_t last_ns = 0;  // the latest of them, in ns into the phase

  void add(std::uint64_t at_ns) {
    if (at_ns > last_ns) last_ns = at_ns;
    ++n;
  }
  void merge(const SecondBin& o) {
    if (o.last_ns > last_ns) last_ns = o.last_ns;
    n += o.n;
  }
};

/// What one caller thread of a closed loop saw. Stage sums are filled only
/// by traced phases; `stage_ns[shape][k]` is the sum of stage k's duration
/// over `staged[shape]` requests.
struct CallerOut {
  static constexpr std::size_t kMaxStages = 5;
  /// Latency samples kept per caller. Past this many completions the
  /// samples are a uniform reservoir of them, so the buffer (reserved up
  /// front) stops growing and peak_rss_mb does not track the request count.
  static constexpr std::size_t kKeep = 1u << 17;

  std::vector<LatencySample> latencies;
  std::uint64_t completed = 0;  // verified completions
  std::vector<SecondBin> per_second;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t busy = 0;
  std::string error;
  std::vector<std::array<double, kMaxStages>> stage_ns;
  std::vector<std::uint64_t> staged;
  SpanLog spans;
  std::uint64_t phase_start_ns = 0;  // set by run_callers

  explicit CallerOut(std::uint32_t classes)
      : stage_ns(classes, std::array<double, kMaxStages>{}), staged(classes, 0) {
    latencies.reserve(kKeep);
  }

  /// A verified completion of class `cls` that ran from t0 to t1 (ns).
  void record(std::uint32_t cls, std::uint64_t t0, std::uint64_t t1) {
    const std::uint64_t at = t1 - phase_start_ns;
    const std::size_t sec = static_cast<std::size_t>(at / 1'000'000'000u);
    if (sec >= per_second.size()) per_second.resize(sec + 1);
    per_second[sec].add(at);
    const LatencySample x{cls, static_cast<float>(t1 - t0) / 1e3f};
    ++completed;
    if (latencies.size() < kKeep) {
      latencies.push_back(x);
    } else if (const std::uint64_t j = reservoir_.next64() % completed; j < kKeep) {
      latencies[j] = x;
    }
  }

 private:
  nabbitc::Pcg32 reservoir_{0x5eed};
};

/// One phase of a closed loop merged over its callers.
struct Phase {
  double seconds = 0;  // start to the last caller's return
  double peak_rss_mb = 0;  // read as the callers return, before merging
  std::uint64_t attempted = 0, failed = 0, wrong = 0, busy = 0, completed = 0;
  std::vector<LatencySample> latencies;
  std::vector<SecondBin> per_second;
  std::vector<std::array<double, CallerOut::kMaxStages>> stage_ns;
  std::vector<std::uint64_t> staged;
  std::string error;  // first caller's transport error, if any

  std::uint64_t succeeded() const { return completed; }
  /// Mean of stage k over class c's staged requests, in microseconds.
  double stage_mean_us(std::uint32_t c, std::size_t k) const {
    return staged[c] == 0 ? 0.0 : stage_ns[c][k] / 1e3 / static_cast<double>(staged[c]);
  }
};

/// Runs body(caller, stop) on `outs.size()` threads, raises `stop` after
/// `seconds`, joins them all and merges what they recorded. Each body
/// loops until it sees `stop` (or fails), finishing its request in flight.
Phase run_callers(std::vector<CallerOut>& outs, double seconds,
                  const std::function<void(std::uint32_t, const std::atomic<bool>&)>& body);

/// The closed-loop scaffolding serve-tcp and replay-inproc share: one
/// seeded RequestStream and one CallerOut per caller, run phase by phase.
/// A caller's stream continues across phases; its CallerOut is fresh for
/// each phase.
class ClosedLoop {
 public:
  /// One caller's loop: requests from `stream` into `out` until `stop`.
  using Body = std::function<void(std::uint32_t caller, RequestStream& stream,
                                  CallerOut& out, bool traced,
                                  const std::atomic<bool>& stop)>;

  ClosedLoop(std::uint32_t callers, std::uint64_t seed, Body body);
  /// One phase of `seconds`; a traced phase gives each caller a span log.
  Phase run(double seconds, bool traced);
  /// The span logs of the last phase.
  std::vector<const SpanLog*> span_logs() const;

 private:
  Body body_;
  std::vector<RequestStream> streams_;
  std::vector<CallerOut> outs_;
};

/// Sets up `n` times with `make` (returns a std::unique_ptr, null on
/// failure), destroying each result before the next: tear-down is not
/// set-up. Appends each set-up's seconds to `secs`, hands each result to
/// `each` outside the timing, and returns the last one (null on failure).
template <class Make, class Each>
auto set_up_repeatedly(int n, std::vector<double>& secs, Make make, Each each)
    -> decltype(make()) {
  decltype(make()) s;
  for (int k = 0; k < n; ++k) {
    s.reset();
    const std::uint64_t t0 = now();
    s = make();
    if (s == nullptr) break;
    secs.push_back(static_cast<double>(now() - t0) / 1e9);
    each(*s);
  }
  return s;
}

/// The setup_s of a run that set up `secs.size()` times in consecutive
/// rounds of `per_round`: the median over the rounds of each round's
/// fastest set-up. Prints the set-ups' quartiles and the result on stderr.
/// A closed-loop set-up is mostly thread starts and cross-thread round
/// trips, whose time follows the host's load: on a 4-vCPU host, a
/// concurrent compile raised a run's median serve-tcp set-up up to 3.5x
/// while its fastest stayed within 20%.
/// The best of a round drops the set-ups that waited for a busy host; the
/// median over rounds drops a round that found no quiet moment.
double setup_seconds(const std::vector<double>& secs, std::size_t per_round);

/// Adds the end-to-end metrics of a closed-loop workload to `r`: every
/// workload reports the same names (see BENCHMARK.json). graphs_per_s is
/// the median over the phase's whole seconds of the completion rate in
/// each, so a burst of host noise in a few seconds does not move it. A
/// second's rate is its completions over the time from the previous
/// second's last completion to its own: exact however bursty they are.
void add_end_to_end(Report& r, const Phase& p, const std::vector<const char*>& classes,
                    double setup_s);
/// The traced metrics serve-tcp and replay-inproc share: the scheduler's
/// steals over the traced half (`wc`), fail_share, and
/// trace.overhead_share.<workload> (time per graph traced over untraced).
/// On these two workloads the traced half adds only the benchmark's own
/// span pushes, and the halves run back to back, so the overhead figure is
/// span-recording cost at the level of the host's drift between halves.
void add_closed_loop_layers(Report& r, const std::string& workload, const Phase& base,
                            const Phase& traced, const nabbitc::rt::WorkerCounters& wc);
/// Counts of a measured phase into the report (attempted/failed/wrong). A
/// caller's transport error is a failure, not a wrong result; it is logged.
void add_counts(Report& r, const Phase& p);

/// Median of `xs` (nearest rank); the setup_s of a run that set up
/// several times.
double median(std::vector<double> xs);

// --- workloads ----------------------------------------------------------------------

/// Counts of one untraced serve-tcp phase against a server whose
/// per-session in-flight cap is `max_inflight_per_session` (0 refuses
/// every SUBMIT with BUSY). For the benchmark's own tests.
struct ProbeCounts {
  std::uint64_t attempted = 0, succeeded = 0, failed = 0, busy = 0, wrong = 0;
};
ProbeCounts probe_serve_tcp(std::uint64_t seed, double seconds,
                            std::uint32_t max_inflight_per_session);

Report run_serve_tcp(const RunConfig& cfg);
Report run_replay_inproc(const RunConfig& cfg);
Report run_solve_real(const RunConfig& cfg);

}  // namespace perfbench
