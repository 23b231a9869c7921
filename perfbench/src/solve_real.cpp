// solve-real: the paper's dynamic path on real cores. Each solve is one
// Workload::run_taskgraph on a NabbitC runtime, discovering the graph
// afresh, on the small preset at 2 workers. Four families cover the
// paper's classes: heat (regular stencil), mg (parallelism that shrinks
// level by level), page-twitter-2010 (irregular) and sw (wavefront). net
// and plan are not on this path; the scheduler, the dynamic executor and
// the kernels are.
//
// P = 2 because at 3-4 workers on a 4-CPU host the solve times swung by a
// fifth between runs, so those counts measured the host more than the
// program. Every solve's checksum is checked against the family's serial
// reference, computed untimed at set-up.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/runtime.h"
#include "bench.h"
#include "support/rng.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using namespace nabbitc;

constexpr std::uint32_t kFamilies = 4;
const std::array<const char*, kFamilies> kFamilyNames = {"heat", "mg",
                                                         "page-twitter-2010", "sw"};
constexpr wl::SizePreset kPreset = wl::SizePreset::kSmall;
constexpr std::uint32_t kWorkers = 2;
/// The second scaling point (scaling.speedup_x.p4), traced runs only.
constexpr std::uint32_t kScaleWorkers = 4;
/// A set-up here is over a second of CPU work (prepare()), not a handful of
/// round trips, so it needs no best-of: setup_s is the median of three.
constexpr int kSetupRounds = 3;
constexpr int kSetupsPerRound = 1;
constexpr nabbit::ColoringMode kColoring = nabbit::ColoringMode::kGood;

/// Span names: a solve is named after its family (span name = family index).
const std::vector<const char*> kSpanNames = {
    "wl.run_taskgraph:heat", "wl.run_taskgraph:mg", "wl.run_taskgraph:page-twitter-2010",
    "wl.run_taskgraph:sw", "wl.reset"};
constexpr std::uint16_t kSpanReset = kFamilies;

api::RuntimeOptions runtime_options(std::uint32_t workers, std::uint64_t seed,
                                    bool traced) {
  api::RuntimeOptions ro;
  ro.workers = workers;
  ro.variant = api::Variant::kNabbitC;
  ro.seed = seed;
  ro.trace.enabled = traced;  // idle_ns is only counted while tracing
  // The host is one NUMA domain, where the paper's locality metric always
  // reads 0. One accounting domain per worker makes it count nodes run off
  // their color's worker instead. Only the accounting reads the domains:
  // workers are not pinned, so scheduling is unchanged.
  ro.topology = numa::Topology(workers, 1);
  return ro;
}

/// Declaration order: the workloads die before the runtime they ran on.
struct Setup {
  std::unique_ptr<api::Runtime> rt;
  std::array<std::unique_ptr<wl::Workload>, kFamilies> w;
  std::array<double, kFamilies> prepare_s{};
};

std::unique_ptr<Setup> set_up(std::uint32_t workers, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->rt = std::make_unique<api::Runtime>(runtime_options(workers, seed, false));
  for (std::uint32_t f = 0; f < kFamilies; ++f) {
    const std::uint64_t t0 = now();
    s->w[f] = wl::make_workload(kFamilyNames[f], kPreset);
    s->w[f]->prepare(workers);
    s->prepare_s[f] = static_cast<double>(now() - t0) / 1e9;
  }
  return s;
}

/// Solves of one phase. A wrong checksum is a failed attempt.
struct Solves {
  std::vector<LatencySample> times;  // us, verified solves only
  std::uint64_t attempted = 0, wrong = 0;
  double solve_s = 0;  // summed wall time of the verified solves
  /// Per round: solves / their summed wall time, for a round all verified.
  std::vector<double> round_rate;
  std::array<double, kFamilies> family_s{};
  std::array<std::uint64_t, kFamilies> family_n{};
  std::array<rt::WorkerCounters, kFamilies> counters{};
  std::array<std::uint64_t, kFamilies> nodes_created{};
  SpanLog spans;

  double median_ms(std::uint32_t f) const {
    std::vector<double> v;
    for (const LatencySample& x : times) {
      if (x.cls == f) v.push_back(x.us / 1e3);
    }
    return median(v);
  }
};

/// Solves every family once per round on `rt`, in a seeded order, until
/// `seconds` of wall time passed (at least one round). A traced phase also
/// takes per-family counter deltas (the counters() read quiesces the pool
/// between solves) and spans.
Solves solve_for(api::Runtime& rt, Setup& s,
                 const std::array<std::uint64_t, kFamilies>& reference,
                 Pcg32& order_rng, double seconds, bool traced) {
  Solves out;
  if (traced) {
    out.spans = SpanLog(1u << 14);
    rt.reset_counters();
  }
  std::array<std::uint32_t, kFamilies> order{0, 1, 2, 3};
  const std::uint64_t t_end = now() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t id = 0;
  do {
    for (std::uint32_t i = kFamilies - 1; i > 0; --i) {
      std::swap(order[i], order[order_rng.below(i + 1)]);
    }
    double round_s = 0;
    std::uint32_t round_ok = 0;
    for (const std::uint32_t f : order) {
      wl::Workload& w = *s.w[f];
      const std::uint64_t t_reset = now();
      w.reset();
      ++out.attempted;
      const std::uint64_t t0 = now();
      // Workload::run_taskgraph spelled out, so that the execution's own
      // node count can be read.
      const auto spec = w.make_taskgraph_spec(rt.workers(), kColoring);
      const std::uint64_t created = rt.run(*spec, w.taskgraph_sink()).nodes_created();
      const std::uint64_t t1 = now();
      if (w.checksum() != reference[f]) {
        ++out.wrong;
        continue;
      }
      const double secs = static_cast<double>(t1 - t0) / 1e9;
      out.times.push_back({f, static_cast<float>(secs * 1e6)});
      out.solve_s += secs;
      round_s += secs;
      ++round_ok;
      out.family_s[f] += secs;
      ++out.family_n[f];
      if (traced) {
        out.nodes_created[f] += created;
        out.counters[f].merge(rt.counters());
        rt.reset_counters();
        out.spans.add(kSpanReset, id, t_reset, t0);
        out.spans.add(static_cast<std::uint16_t>(f), id, t0, t1);
        ++id;
      }
    }
    if (round_ok == kFamilies) out.round_rate.push_back(kFamilies / round_s);
  } while (now() < t_end);
  return out;
}

double share(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

}  // namespace

Report run_solve_real(const RunConfig& cfg) {
  Report r;
  std::vector<double> setup_s;
  std::array<std::vector<double>, kFamilies> prepare_s;
  const std::unique_ptr<Setup> s = set_up_repeatedly(
      kSetupRounds * kSetupsPerRound, setup_s, [&] { return set_up(kWorkers, cfg.seed); },
      [&](const Setup& x) {
        for (std::uint32_t f = 0; f < kFamilies; ++f) prepare_s[f].push_back(x.prepare_s[f]);
      });

  // Serial references, outside every timed window.
  std::array<std::uint64_t, kFamilies> reference{};
  std::array<std::vector<double>, kFamilies> serial_ms;
  const auto solve_serial = [&](std::uint32_t f) {
    s->w[f]->reset();
    const std::uint64_t t0 = now();
    s->w[f]->run_serial();
    serial_ms[f].push_back(static_cast<double>(now() - t0) / 1e6);
    return s->w[f]->checksum();
  };
  for (std::uint32_t f = 0; f < kFamilies; ++f) reference[f] = solve_serial(f);

  Pcg32 order_rng(cfg.seed, /*stream=*/0x50);
  r.wrong += solve_for(*s->rt, *s, reference, order_rng, 0, false).wrong;  // warm-up round

  const auto count = [&r](const Solves& x) {
    r.attempted += x.attempted;
    r.failed += x.wrong;
    r.wrong += x.wrong;
  };
  if (!cfg.trace) {
    const Solves p = solve_for(*s->rt, *s, reference, order_rng, cfg.seconds, false);
    const double rss = peak_rss_mb();
    count(p);
    const LatencySummary ls = summarize(p.times, kFamilies);
    print_classes(ls, {kFamilyNames.begin(), kFamilyNames.end()});
    // Median over rounds (one solve of each family), for the same reason
    // the closed loops take a median over seconds.
    r.add("graphs_per_s", median(p.round_rate), "1/s");
    r.add("latency_gmean_p50_us", ls.gmean_p50, "us");
    r.add("setup_s", setup_seconds(setup_s, kSetupsPerRound), "s");
    r.add("peak_rss_mb", rss, "MB");
    return r;
  }

  // Traced run, four quarters: untraced P=2 solves (per-family medians and
  // the overhead base), the same workloads on a second, traced P=2 runtime
  // (the per-layer counters), P=4 solves on workloads prepared for 4
  // colors (the second scaling point), and repeated serial solves (the
  // scaling base).
  const double q = cfg.seconds / 4;
  const Solves base = solve_for(*s->rt, *s, reference, order_rng, q, false);
  Solves tr;
  {
    api::Runtime traced_rt(runtime_options(kWorkers, cfg.seed, true));
    tr = solve_for(traced_rt, *s, reference, order_rng, q, true);
  }
  Solves p4;
  {
    const std::unique_ptr<Setup> s4 = set_up(kScaleWorkers, cfg.seed);
    p4 = solve_for(*s4->rt, *s4, reference, order_rng, q, false);
  }
  count(base);
  count(tr);
  count(p4);
  const std::uint64_t t_serial_end = now() + static_cast<std::uint64_t>(q * 1e9);
  while (now() < t_serial_end) {
    for (std::uint32_t f = 0; f < kFamilies; ++f) {
      ++r.attempted;
      if (solve_serial(f) != reference[f]) {
        ++r.failed;
        ++r.wrong;
      }
    }
  }

  r.add("latency_p95_us", summarize(base.times, kFamilies).p95, "us");
  for (std::uint32_t f = 0; f < kFamilies; ++f) {
    const std::string fam = kFamilyNames[f];
    const rt::WorkerCounters& c = tr.counters[f];
    const double n = static_cast<double>(std::max<std::uint64_t>(1, tr.family_n[f]));
    const double solve_ms = base.median_ms(f);
    const double p4_ms = p4.median_ms(f);
    const double ser = median(serial_ms[f]);
    r.add("solve_ms." + fam, solve_ms, "ms");
    r.add("nabbit.nodes_created." + fam, static_cast<double>(tr.nodes_created[f]) / n,
          "count");
    r.add("rt.steal_attempts_per_node." + fam,
          share(c.steal_attempts_total(), tr.nodes_created[f]), "count");
    r.add("rt.steal_success_ratio." + fam, share(c.steals_total(), c.steal_attempts_total()),
          "share");
    r.add("rt.first_steal_wait_us." + fam,
          static_cast<double>(c.first_steal_wait_ns) / 1e3 / n, "us");
    r.add("rt.idle_share." + fam,
          ratio(static_cast<double>(c.idle_ns) / 1e9, kWorkers * tr.family_s[f]), "share");
    r.add("nabbitc.colored_steal_share." + fam, share(c.steals_colored, c.steals_total()),
          "share");
    r.add("nabbitc.remote_node_share." + fam,
          share(c.locality.remote_nodes, c.locality.nodes), "share");
    r.add("nabbitc.remote_pred_share." + fam,
          share(c.locality.remote_pred_accesses, c.locality.pred_accesses), "share");
    r.add("workloads.serial_ms." + fam, ser, "ms");
    r.add("workloads.prepare_s." + fam, median(prepare_s[f]), "s");
    r.add("scaling.speedup_x.p2." + fam, ratio(ser, solve_ms), "x");
    r.add("scaling.speedup_x.p4." + fam, ratio(ser, p4_ms), "x");
  }
  r.add("fail_share", share(r.failed, r.attempted), "share");
  // Time per solve, traced over untraced.
  r.add("trace.overhead_share.solve-real",
        ratio(tr.solve_s * static_cast<double>(base.times.size()),
              base.solve_s * static_cast<double>(tr.times.size())) -
            1.0,
        "share");
  write_spans(cfg.trace_out, {&tr.spans}, kSpanNames);
  return r;
}

}  // namespace perfbench
