// Sustained-serving throughput: fresh GraphSpec submission vs compiled-plan
// replay, serialized and under N concurrent replay streams.
//
// This is the benchmark behind the freeze-once/replay-many subsystem
// (src/plan/): a server fielding the same DAG per request should pay graph
// construction once, at compile time, and nothing but instance reset +
// injection on the steady-state path. Reported:
//
//   * fresh_submit_ns / replay_submit_ns — one whole graph round trip
//     (submit+wait) through each path, serialized, best repeat;
//   * replay_speedup_x — fresh / replay;
//   * tiered_replay_submit_ns — the same replay with replay tiering on
//     (the other phases pin the scheduled tier): the wavefront's serial
//     time beats a scheduler round trip, so it runs inline;
//   * replay_exec_node_ns, inline_node_ns, replay_dispatch_x — the
//     wavefront replay's per-node execution time, the per-node time of a
//     tiny plan replayed inline (no scheduler), and their ratio: what the
//     scheduled replay pays per node for dispatch beyond the node itself;
//   * sustained_submissions_per_sec, replay_node_ns — N threads replaying
//     one plan each for a timed window, all sharing the worker pool (the
//     epoch-segmented arenas keep memory flat: arena_bytes is reported);
//   * checksum verification on every phase: a replay that diverged from
//     the fresh path aborts the benchmark.
//
// Usage (key=value args, NABBITC_* env overrides):
//   bench_throughput [preset=tiny|default] [workers=N] [streams=N]
//                    [side=N] [secs=S] [variant=nabbit|nabbitc]
//                    [out=BENCH_throughput.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "support/align.h"
#include "support/config.h"
#include "support/timing.h"

using namespace nabbitc;
using nabbit::Key;

namespace {

/// Commutative-accumulate wavefront (stencil dependence shape): safe under
/// concurrent replays, and every execution's contribution is checkable.
struct StreamNode final : nabbit::TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit StreamNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(nabbit::ExecContext&) override {
    const std::uint32_t i = nabbit::key_major(key()), j = nabbit::key_minor(key());
    if (i > 0) add_predecessor(nabbit::key_pack(i - 1, j));
    if (j > 0) add_predecessor(nabbit::key_pack(i, j - 1));
  }
  void compute(nabbit::ExecContext&) override {
    acc->fetch_add(key() + 1, std::memory_order_relaxed);
  }
};

struct StreamSpec final : nabbit::GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t side;
  std::uint32_t colors;
  StreamSpec(std::atomic<std::uint64_t>* a, std::uint32_t s, std::uint32_t c)
      : acc(a), side(s), colors(c) {}
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<StreamNode>(acc);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(nabbit::key_major(k) % colors);
  }
  std::size_t expected_nodes() const override {
    return std::size_t{side} * side;
  }

  std::uint64_t per_run_total() const {
    std::uint64_t t = 0;
    for (std::uint32_t i = 0; i < side; ++i) {
      for (std::uint32_t j = 0; j < side; ++j) t += nabbit::key_pack(i, j) + 1;
    }
    return t;
  }
};

/// Chain-heavy pipeline workload: `chains` independent chains of `len`
/// nodes feeding one sink. The chain-fusion compiler pass collapses each
/// chain into a single scheduling unit, so the replay moves ~chains units
/// through the scheduler instead of chains*len nodes — ci.sh gates on the
/// reported fused/original node counts.
struct PipeNode final : nabbit::TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t chains, len;
  PipeNode(std::atomic<std::uint64_t>* a, std::uint32_t c, std::uint32_t l)
      : acc(a), chains(c), len(l) {}
  void init(nabbit::ExecContext&) override {
    const std::uint32_t c = nabbit::key_major(key());
    const std::uint32_t i = nabbit::key_minor(key());
    if (c == chains) {  // sink: joins every chain's tail
      for (std::uint32_t t = 0; t < chains; ++t) {
        add_predecessor(nabbit::key_pack(t, len - 1));
      }
    } else if (i > 0) {
      add_predecessor(nabbit::key_pack(c, i - 1));
    }
  }
  void compute(nabbit::ExecContext&) override {
    acc->fetch_add(key() + 1, std::memory_order_relaxed);
  }
};

struct PipeSpec final : nabbit::GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t chains, len, colors;
  PipeSpec(std::atomic<std::uint64_t>* a, std::uint32_t c, std::uint32_t l,
           std::uint32_t nc)
      : acc(a), chains(c), len(l), colors(nc) {}
  nabbit::TaskGraphNode* create(nabbit::NodeArena& arena, Key) override {
    return arena.create<PipeNode>(acc, chains, len);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(nabbit::key_major(k) % colors);
  }
  std::size_t expected_nodes() const override {
    return std::size_t{chains} * len + 1;
  }
  Key sink_key() const { return nabbit::key_pack(chains, 0); }
  std::uint64_t per_run_total() const {
    std::uint64_t t = sink_key() + 1;
    for (std::uint32_t c = 0; c < chains; ++c) {
      for (std::uint32_t i = 0; i < len; ++i) t += nabbit::key_pack(c, i) + 1;
    }
    return t;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> g_metrics;

void report(const std::string& name, double value, const char* unit) {
  g_metrics.push_back({name, value, unit});
  std::printf("%-32s %16.2f %s\n", name.c_str(), value, unit);
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Best-of-repeats wall time for `rounds` calls of fn().
template <typename Fn>
double best_seconds(int repeats, int rounds, Fn&& fn) {
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    for (int i = 0; i < rounds; ++i) fn();
    const double s = t.seconds();
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = Config::from_args(argc, argv);
  const std::string preset = cfg.get("preset", "default");
  const bool tiny = preset == "tiny";
  const std::string out = cfg.get("out", "BENCH_throughput.json");
  const auto workers = static_cast<std::uint32_t>(cfg.get_int("workers", 2));
  const auto streams = static_cast<std::uint32_t>(cfg.get_int("streams", 2));
  const auto side =
      static_cast<std::uint32_t>(cfg.get_int("side", tiny ? 16 : 32));
  const double secs = cfg.get_double("secs", tiny ? 0.15 : 1.0);
  const int rounds = tiny ? 20 : 60;
  const int repeats = tiny ? 2 : 3;
  api::Variant variant = api::parse_variant(cfg.get("variant", "nabbitc"));

  api::RuntimeOptions ro;
  ro.workers = workers;
  ro.variant = variant;
  api::Runtime rt(ro);

  const std::uint64_t nodes = std::uint64_t{side} * side;
  std::printf("NabbitC throughput bench: variant=%s workers=%u streams=%u "
              "side=%u (%llu nodes/graph)\n\n",
              api::variant_name(variant), rt.workers(), streams, side,
              static_cast<unsigned long long>(nodes));

  // --- serialized baseline: fresh GraphSpec submission per request.
  std::atomic<std::uint64_t> acc{0};
  StreamSpec spec(&acc, side, rt.workers());
  const std::uint64_t per_run = spec.per_run_total();
  rt.run(spec, nabbit::key_pack(side - 1, side - 1));  // warm-up
  acc.store(0);
  const double fresh_s = best_seconds(repeats, rounds, [&] {
    rt.run(spec, nabbit::key_pack(side - 1, side - 1));
  });
  check(acc.load() % per_run == 0, "fresh submissions diverged");
  report("fresh_submit_ns", fresh_s * 1e9 / rounds, "ns/graph");
  report("fresh_node_ns", fresh_s * 1e9 / static_cast<double>(rounds * nodes),
         "ns/node");

  // --- serialized replay: compile once, resubmit the plan. Tiering is
  // masked: every phase below measures the scheduled tier.
  auto plan = rt.compile(spec, nabbit::key_pack(side - 1, side - 1),
                         /*reserve_instances=*/streams + 1,
                         plan::kPassAll & ~plan::kPassTinyLower);
  acc.store(0);
  rt.run(*plan);  // warm-up
  check(acc.load() == per_run, "replay diverged from fresh submission");
  acc.store(0);
  const double replay_s = best_seconds(repeats, rounds, [&] { rt.run(*plan); });
  check(acc.load() % per_run == 0, "replays diverged");
  report("plan_replay_submit_ns", replay_s * 1e9 / rounds, "ns/graph");
  report("replay_node_ns", replay_s * 1e9 / static_cast<double>(rounds * nodes),
         "ns/node");
  report("replay_speedup_x", fresh_s / replay_s, "x");

  // --- the same wavefront with replay tiering on (default passes); the
  // warm-up replays measure both tiers.
  {
    auto tiered = rt.compile(spec, nabbit::key_pack(side - 1, side - 1));
    acc.store(0);
    for (int i = 0; i < 2; ++i) rt.run(*tiered);
    const double tiered_s =
        best_seconds(repeats, rounds, [&] { rt.run(*tiered); });
    check(acc.load() % per_run == 0, "tiered replays diverged");
    report("tiered_replay_submit_ns", tiered_s * 1e9 / rounds, "ns/graph");
  }

  // --- replay dispatch cost: what the scheduled replay pays per node beyond
  // the node itself. Every worker but one is held busy (the saturated-
  // serving case: no idle peer, so nothing is promoted or stolen), and the
  // wavefront replay's per-node execution time (adoption to completion; the
  // futex wake of a serialized round trip is left out) is set over the
  // per-node time of the same node body replayed inline by a tiny
  // serial-lowered plan — no scheduler, no spawn, no wake. Both are medians
  // of many samples. ci.sh gates the ratio, replay_dispatch_x.
  {
    const std::uint32_t tiny_side = 4;  // 16 nodes: under kTinyGraphMaxNodes
    Padded<std::atomic<std::uint64_t>> tacc;
    StreamSpec tspec(&*tacc, tiny_side, rt.workers());
    auto tplan = rt.compile(tspec, nabbit::key_pack(tiny_side - 1, tiny_side - 1));
    check(tplan->serial_lowered(), "tiny plan was not serial-lowered");
    // Settle it on the inline tier while the workers are free to measure
    // the scheduled one: each confirmed re-sample doubles the interval to
    // the next, so below at most one replay in kTierMaxProbeInterval goes
    // to the scheduler.
    for (std::uint32_t i = 0; i < 4 * plan::kTierMaxProbeInterval; ++i) {
      rt.run(*tplan);
    }
    // Own cache lines: the holders poll `release` on every spin, and a node
    // counter sharing its line would bounce on every node.
    Padded<std::atomic<bool>> release;
    Padded<std::atomic<std::size_t>> holding;
    std::vector<rt::Scheduler::RootJob> holders(rt.workers() - 1);
    for (auto& h : holders) {
      h.fn = [&](rt::Worker&) {
        holding->fetch_add(1);
        while (!release->load(std::memory_order_acquire)) {
          std::this_thread::yield();  // cedes the CPU on a one-CPU host
        }
      };
      rt.scheduler().submit(h);
    }
    while (holding->load() != holders.size()) std::this_thread::yield();
    // Both samples are taken on the one free worker, alternately, so they
    // share its CPU: an inline batch inside a root job, then a replay.
    constexpr int kInlineBatch = 64;
    const int samples = tiny ? 300 : 1000;
    std::vector<double> exec_ns, inline_ns;
    acc.store(0);
    for (int i = 0; i < samples; ++i) {
      rt.run_parallel([&](rt::Worker&) {
        Timer t;
        for (int j = 0; j < kInlineBatch; ++j) rt.run(*tplan);
        inline_ns.push_back(t.seconds() * 1e9 / kInlineBatch);
      });
      api::Execution e = rt.run(*plan);
      check(e.first_dispatch_time_ns() != 0,
            "no adoption stamp (metrics disabled?)");
      exec_ns.push_back(
          static_cast<double>(e.complete_time_ns() - e.first_dispatch_time_ns()));
    }
    release->store(true, std::memory_order_release);
    for (auto& h : holders) rt.scheduler().wait(h);
    check(acc.load() == per_run * static_cast<std::uint64_t>(samples),
          "replays diverged");
    check(tacc->load() % tspec.per_run_total() == 0, "inline replays diverged");
    const double exec_node_ns = median(exec_ns) / static_cast<double>(nodes);
    const double inline_node_ns =
        median(inline_ns) / static_cast<double>(tiny_side * tiny_side);
    report("replay_exec_node_ns", exec_node_ns, "ns/node");
    report("inline_node_ns", inline_node_ns, "ns/node");
    report("replay_dispatch_x", exec_node_ns / inline_node_ns, "x");
  }

  // --- serialized batched replay: the same plan, `batch` graphs per
  // submit_batch+wait_all call. On compute-heavy graphs the win is modest
  // (the front door is amortized but the nodes still run); bench_serving's
  // single-node phase isolates the submission overhead itself.
  const auto batch_n =
      static_cast<std::size_t>(cfg.get_int("batch", 32));
  acc.store(0);
  {
    auto warm = rt.submit_batch(*plan, batch_n);
    warm.wait_all();
  }
  check(acc.load() == per_run * batch_n,
        "batched replay diverged from fresh submission");
  acc.store(0);
  const int batch_rounds = rounds / 8 + 1;
  const double batch_s = best_seconds(repeats, batch_rounds, [&] {
    auto b = rt.submit_batch(*plan, batch_n);
    b.wait_all();
  });
  check(acc.load() % per_run == 0, "batched replays diverged");
  report("plan_batch_submit_ns",
         batch_s * 1e9 / static_cast<double>(batch_rounds) /
             static_cast<double>(batch_n),
         "ns/graph");

  // --- N concurrent replay streams, one shared worker pool, timed window.
  acc.store(0);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  Timer window;
  for (std::uint32_t t = 0; t < streams; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        rt.run(*plan);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (window.seconds() < secs) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double elapsed = window.seconds();
  const auto done = completed.load();
  check(done > 0, "no replay completed inside the timed window");
  check(acc.load() == per_run * done, "concurrent replays diverged");
  report("sustained_submissions_per_sec",
         static_cast<double>(done) / elapsed, "graphs/s");
  report("sustained_node_ns",
         elapsed * 1e9 / static_cast<double>(done * nodes), "ns/node");
  report("plan_instances", static_cast<double>(plan->instances_built()),
         "instances");
  report("arena_bytes_after", static_cast<double>(rt.arena_bytes()), "bytes");

  // --- chain-heavy pipeline: what the chain-fusion pass buys on the
  // workload shape it targets. Each chain collapses to one unit, so the
  // fused count must be well under the node count (gated in ci.sh).
  {
    std::atomic<std::uint64_t> pacc{0};
    const std::uint32_t chains = 8;
    const std::uint32_t len = tiny ? 16 : 64;
    PipeSpec pspec(&pacc, chains, len, rt.workers());
    auto pplan = rt.compile(pspec, pspec.sink_key());
    check(pplan->num_nodes() == chains * len + 1, "pipeline plan wrong size");
    check(pplan->num_fused_nodes() < pplan->num_nodes(),
          "chain fusion did not collapse the pipeline workload");
    const std::uint64_t pipe_total = pspec.per_run_total();
    pacc.store(0);
    rt.run(*pplan);  // warm-up + correctness
    check(pacc.load() == pipe_total, "pipeline replay diverged");
    pacc.store(0);
    const double pipe_s =
        best_seconds(repeats, rounds, [&] { rt.run(*pplan); });
    check(pacc.load() % pipe_total == 0, "pipeline replays diverged");
    report("plan_nodes", static_cast<double>(pplan->num_nodes()), "nodes");
    report("plan_fused_nodes", static_cast<double>(pplan->num_fused_nodes()),
           "units");
    report("pipeline_replay_submit_ns", pipe_s * 1e9 / rounds, "ns/graph");
  }

  // --- JSON out.
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAILED to open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"variant\": \"%s\",\n", api::variant_name(variant));
  std::fprintf(f, "  \"workers\": %u,\n", rt.workers());
  std::fprintf(f, "  \"streams\": %u,\n", streams);
  std::fprintf(f, "  \"side\": %u,\n", side);
  std::fprintf(f, "  \"nodes_per_graph\": %llu,\n",
               static_cast<unsigned long long>(nodes));
  std::fprintf(f, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\"value\": %.4f, \"unit\": \"%s\"}%s\n",
                 g_metrics[i].name.c_str(), g_metrics[i].value,
                 g_metrics[i].unit, i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[bench] wrote %zu metrics -> %s\n", g_metrics.size(), out.c_str());
  return 0;
}
