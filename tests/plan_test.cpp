// Tests for compiled graph plans (src/plan/): freeze-once/replay-many.
//
//   * compile/replay equivalence: replaying a plan is bitwise-identical to
//     a fresh GraphSpec submission — checksum-verified for a local
//     wavefront and for every workload family, under both variants;
//   * concurrent replay: one plan replayed from many threads at once runs
//     on distinct pooled instances, every execution correct;
//   * steady-state replay performs ZERO heap allocations (this binary
//     overrides the global allocation functions with counting versions);
//   * the arena regression guard: continuous overlapping submissions (the
//     pool never quiescent) hold frame-arena memory bounded, thanks to the
//     epoch-segmented arenas of rt/arena.h.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "counting_alloc.h"
#include "persist/plan_blob.h"
#include "support/rng.h"
#include "support/spin.h"
#include "support/timing.h"
#include "workloads/workload.h"


namespace nabbitc::api {
namespace {

// ---------------------------------------------------------------- wavefront
// Same deterministic integer wavefront as api_test.cpp: cell (i,j) mixes
// its two neighbours with a per-graph seed, so the matrix — and therefore
// the checksum — is bitwise-reproducible from (side, seed) alone.

std::uint64_t cell_mix(std::uint64_t up, std::uint64_t left, std::uint64_t seed,
                       std::uint64_t key) {
  return splitmix64(up ^ (left * 0x9e3779b97f4a7c15ULL) ^ seed ^ key);
}

struct WaveGrid {
  std::uint32_t side;
  std::uint64_t seed;
  std::vector<std::uint64_t> cells;

  WaveGrid(std::uint32_t s, std::uint64_t sd)
      : side(s), seed(sd), cells(std::size_t{s} * s, 0) {}

  std::uint64_t& at(std::uint32_t i, std::uint32_t j) {
    return cells[std::size_t{i} * side + j];
  }
  void clear() { cells.assign(cells.size(), 0); }

  std::uint64_t checksum() const {
    std::uint64_t h = seed;
    for (std::uint64_t v : cells) h = splitmix64(h ^ v);
    return h;
  }

  static std::uint64_t expected_checksum(std::uint32_t side, std::uint64_t seed) {
    WaveGrid g(side, seed);
    for (std::uint32_t i = 0; i < side; ++i) {
      for (std::uint32_t j = 0; j < side; ++j) {
        const std::uint64_t up = i > 0 ? g.at(i - 1, j) : 0;
        const std::uint64_t left = j > 0 ? g.at(i, j - 1) : 0;
        g.at(i, j) = cell_mix(up, left, seed, key_pack(i, j));
      }
    }
    return g.checksum();
  }
};

class WaveNode final : public TaskGraphNode {
 public:
  explicit WaveNode(WaveGrid* g) : g_(g) {}
  void init(ExecContext&) override {
    const std::uint32_t i = key_major(key()), j = key_minor(key());
    if (i > 0) add_predecessor(key_pack(i - 1, j));
    if (j > 0) add_predecessor(key_pack(i, j - 1));
  }
  void compute(ExecContext&) override {
    const std::uint32_t i = key_major(key()), j = key_minor(key());
    const std::uint64_t up = i > 0 ? g_->at(i - 1, j) : 0;
    const std::uint64_t left = j > 0 ? g_->at(i, j - 1) : 0;
    g_->at(i, j) = cell_mix(up, left, g_->seed, key());
  }

 private:
  WaveGrid* g_;
};

class WaveSpec final : public GraphSpec {
 public:
  explicit WaveSpec(WaveGrid* g) : g_(g) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<WaveNode>(g_);
  }
  Color color_of(Key k) const override {
    return static_cast<Color>(key_major(k) % 4);
  }
  std::size_t expected_nodes() const override {
    return std::size_t{g_->side} * g_->side;
  }

 private:
  WaveGrid* g_;
};

/// Commutative-accumulate grid (stencil dependence shape): safe under
/// concurrent replays of ONE plan, and the total is exactly checkable.
struct AccumNode final : TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit AccumNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(ExecContext&) override {
    const std::uint32_t i = key_major(key()), j = key_minor(key());
    if (i > 0) add_predecessor(key_pack(i - 1, j));
    if (j > 0) add_predecessor(key_pack(i, j - 1));
  }
  void compute(ExecContext&) override {
    acc->fetch_add(key() + 1, std::memory_order_relaxed);
  }
};

struct AccumSpec final : GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t n;
  AccumSpec(std::atomic<std::uint64_t>* a, std::uint32_t side) : acc(a), n(side) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<AccumNode>(acc);
  }
  Color color_of(Key k) const override {
    return static_cast<Color>(key_minor(k) % 2);
  }
  std::size_t expected_nodes() const override { return std::size_t{n} * n; }

  std::uint64_t expected_total() const {
    std::uint64_t t = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) t += key_pack(i, j) + 1;
    }
    return t;
  }
};

api::Runtime make_runtime(Variant v, std::uint32_t workers = 2) {
  RuntimeOptions opts;
  opts.workers = workers;
  opts.variant = v;
  return api::Runtime(opts);
}

// ------------------------------------------------------------------ compile

TEST(PlanCompile, FreezesTopologyAndLookup) {
  auto rt = make_runtime(Variant::kNabbit);
  WaveGrid g(8, 3);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(7, 7));

  EXPECT_EQ(plan->num_nodes(), 64u);
  EXPECT_EQ(plan->sink(), key_pack(7, 7));
  EXPECT_FALSE(plan->colored());  // kNabbit runtime
  ASSERT_EQ(plan->roots().size(), 1u);
  EXPECT_EQ(plan->key_of(plan->roots()[0]), key_pack(0, 0));
  EXPECT_EQ(plan->instances_built(), 1u);

  // Sink is index 0; its CSR predecessors are (6,7) and (7,6).
  EXPECT_EQ(plan->key_of(0), key_pack(7, 7));
  EXPECT_EQ(plan->predecessors(0).size(), 2u);
  EXPECT_EQ(plan->successors(0).size(), 0u);

  // Key lookup round-trips; unknown keys miss.
  for (std::uint32_t i = 0; i < plan->num_nodes(); ++i) {
    EXPECT_EQ(plan->index_of(plan->key_of(i)), i);
  }
  EXPECT_EQ(plan->index_of(key_pack(99, 99)), plan::GraphPlan::kInvalidIndex);

  // Colors were frozen from the spec.
  for (std::uint32_t i = 0; i < plan->num_nodes(); ++i) {
    EXPECT_EQ(plan->color_of(i), spec.color_of(plan->key_of(i)));
  }
}

TEST(PlanCompile, ReserveInstancesPreBuildsPool) {
  auto rt = make_runtime(Variant::kNabbitC);
  WaveGrid g(6, 1);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(5, 5), /*reserve_instances=*/3);
  EXPECT_EQ(plan->instances_built(), 3u);
}

// ------------------------------------------------------ optimization passes

/// Pure pipeline: node k depends only on k-1 — the maximal chain-fusion
/// workload (the whole graph is one fanout-1/fanin-1 run). Commutative
/// accumulate, so the total is exactly checkable regardless of schedule.
struct ChainNode final : TaskGraphNode {
  std::atomic<std::uint64_t>* acc;
  explicit ChainNode(std::atomic<std::uint64_t>* a) : acc(a) {}
  void init(ExecContext&) override {
    if (key() > 0) add_predecessor(key() - 1);
  }
  void compute(ExecContext&) override {
    acc->fetch_add(splitmix64(key() + 1), std::memory_order_relaxed);
  }
};

struct ChainSpec final : GraphSpec {
  std::atomic<std::uint64_t>* acc;
  std::uint32_t n;
  ChainSpec(std::atomic<std::uint64_t>* a, std::uint32_t nodes)
      : acc(a), n(nodes) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<ChainNode>(acc);
  }
  Color color_of(Key) const override { return 0; }
  std::size_t expected_nodes() const override { return n; }

  std::uint64_t expected_total() const {
    std::uint64_t t = 0;
    for (std::uint32_t k = 0; k < n; ++k) t += splitmix64(k + 1);
    return t;
  }
};

TEST(PlanPasses, ChainFusionCollapsesPipelineIntoOneUnit) {
  auto rt = make_runtime(Variant::kNabbitC);
  std::atomic<std::uint64_t> acc{0};
  ChainSpec spec(&acc, 64);  // above the tiny-lowering bound
  const std::uint64_t want = spec.expected_total();

  auto fused = rt.compile(spec, /*sink=*/63);
  EXPECT_EQ(fused->num_nodes(), 64u);
  EXPECT_EQ(fused->passes(), plan::kPassAll);
  EXPECT_FALSE(fused->serial_lowered());
  // A pure pipeline is ONE maximal chain: all 64 nodes fuse into a single
  // scheduling unit (the per-node arrays stay authoritative for lookups).
  EXPECT_EQ(fused->num_fused_nodes(), 1u);
  EXPECT_EQ(fused->index_of(63), 0u) << "sink must keep plan index 0";

  acc.store(0, std::memory_order_relaxed);
  Execution e = rt.run(*fused);
  EXPECT_EQ(e.nodes_computed(), 64u);
  EXPECT_EQ(acc.load(std::memory_order_relaxed), want);

  // Fusion disabled via the pass mask: every unit is a singleton and the
  // replay is still exact.
  auto unfused = rt.compile(spec, 63, /*reserve_instances=*/1,
                            plan::kPassAll & ~plan::kPassChainFusion);
  EXPECT_EQ(unfused->passes(), plan::kPassAll & ~plan::kPassChainFusion);
  EXPECT_EQ(unfused->num_fused_nodes(), 64u);
  acc.store(0, std::memory_order_relaxed);
  Execution e2 = rt.run(*unfused);
  EXPECT_EQ(e2.nodes_computed(), 64u);
  EXPECT_EQ(acc.load(std::memory_order_relaxed), want);
}

TEST(PlanPasses, TinyGraphLoweringTracksSizeBoundAndMask) {
  auto rt = make_runtime(Variant::kNabbitC);
  std::atomic<std::uint64_t> acc{0};

  ChainSpec tiny_spec(&acc, plan::kTinyGraphMaxNodes - 1);
  auto tiny = rt.compile(tiny_spec, plan::kTinyGraphMaxNodes - 2);
  EXPECT_TRUE(tiny->serial_lowered());
  acc.store(0, std::memory_order_relaxed);
  Execution e = rt.submit(*tiny);
  EXPECT_TRUE(e.done()) << "lowered submit must complete inline";
  EXPECT_EQ(acc.load(std::memory_order_relaxed), tiny_spec.expected_total());

  // Same spec with the pass masked off: scheduler path, not lowered.
  auto queued = rt.compile(tiny_spec, plan::kTinyGraphMaxNodes - 2,
                           /*reserve_instances=*/1,
                           plan::kPassAll & ~plan::kPassTinyLower);
  EXPECT_FALSE(queued->serial_lowered());

  // Exactly AT the bound: not lowered.
  ChainSpec at_bound(&acc, plan::kTinyGraphMaxNodes);
  auto big = rt.compile(at_bound, plan::kTinyGraphMaxNodes - 1);
  EXPECT_FALSE(big->serial_lowered());
}

// --------------------------------------------------------------- pool scrape

TEST(PlanPool, InstancesFreeIsExactAndConstantTime) {
  auto rt = make_runtime(Variant::kNabbitC);
  WaveGrid g(8, 11);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(7, 7), /*reserve_instances=*/3);
  EXPECT_EQ(plan->instances_built(), 3u);
  EXPECT_EQ(plan->instances_free(), 3u);

  {
    // Each handle holds its pooled instance until it drops; the free count
    // must track acquire/grow/release exactly.
    Execution a = rt.run(*plan);
    EXPECT_EQ(plan->instances_free(), 2u);
    Execution b = rt.run(*plan);
    EXPECT_EQ(plan->instances_free(), 1u);
    Execution c = rt.run(*plan);
    EXPECT_EQ(plan->instances_free(), 0u);
    Execution d = rt.run(*plan);  // grows the pool on demand
    EXPECT_EQ(plan->instances_built(), 4u);
    EXPECT_EQ(plan->instances_free(), 0u);
  }
  EXPECT_EQ(plan->instances_free(), 4u);

  // The scrape is a relaxed atomic load, NOT a freelist walk under the pool
  // mutex: timing it on a pool with 2048 free instances against the small
  // pool above must be flat (a walk would be hundreds of times slower).
  auto big = rt.compile(spec, key_pack(7, 7), /*reserve_instances=*/2048);
  ASSERT_EQ(big->instances_free(), 2048u);
  const auto scrape_ns = [](const plan::GraphPlan& p) {
    constexpr int kIters = 1 << 16;
    std::size_t sink = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) sink += p.instances_free();
    const std::uint64_t t1 = now_ns();
    EXPECT_GE(sink, std::size_t{kIters});  // keeps the loop observable
    return static_cast<double>(t1 - t0) / kIters;
  };
  scrape_ns(*plan);  // warm both
  scrape_ns(*big);
  const double t_small = scrape_ns(*plan);
  const double t_big = scrape_ns(*big);
  EXPECT_LT(t_big, t_small * 16.0 + 100.0)
      << "instances_free() scales with pool size — O(n) freelist walk is back"
      << " (small=" << t_small << "ns big=" << t_big << "ns)";
}

TEST(PlanCompileDeath, VariantMismatchedReplayAborts) {
  // A plan carries its compile-time variant; replaying it on a runtime of
  // the other variant would reintroduce the policy/executor mismatch.
  // Everything lives inside the death statement: a fast-style death test
  // forks, and forking with live worker threads in the parent can deadlock
  // the child on locks held mid-fork.
  EXPECT_DEATH(
      {
        auto nc = make_runtime(Variant::kNabbitC);
        WaveGrid g(6, 2);
        WaveSpec spec(&g);
        auto plan = nc.compile(spec, key_pack(5, 5));
        auto nb = make_runtime(Variant::kNabbit);
        nb.run(*plan);
      },
      "different variant");
}

TEST(PlanCompileDeath, CyclicGraphAborts) {
  struct CycleNode final : TaskGraphNode {
    void init(ExecContext&) override {
      add_predecessor((key() + 1) % 3);  // 0 -> 1 -> 2 -> 0
    }
    void compute(ExecContext&) override {}
  };
  struct CycleSpec final : GraphSpec {
    TaskGraphNode* create(NodeArena& arena, Key) override {
      return arena.create<CycleNode>();
    }
  };
  // plan::compile needs no Runtime (and therefore no worker threads — see
  // above): compile the spec directly.
  CycleSpec spec;
  EXPECT_DEATH(plan::compile(spec, 0), "cycle detected");
}

// ------------------------------------------------------- replay equivalence

class PlanVariant : public ::testing::TestWithParam<Variant> {};

TEST_P(PlanVariant, ReplayBitwiseEqualsFreshSubmission) {
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 16;
  WaveGrid g(kSide, 0xabcd);
  WaveSpec spec(&g);
  const std::uint64_t expected = WaveGrid::expected_checksum(kSide, 0xabcd);

  // Fresh-spec submission (the reference path).
  Execution fresh = rt.run(spec, key_pack(kSide - 1, kSide - 1));
  EXPECT_EQ(fresh.nodes_computed(), std::uint64_t{kSide} * kSide);
  EXPECT_EQ(g.checksum(), expected);

  // Compile once, replay many: bitwise-identical every time.
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));
  for (int round = 0; round < 4; ++round) {
    g.clear();
    Execution e = rt.run(*plan);
    EXPECT_EQ(e.nodes_computed(), std::uint64_t{kSide} * kSide) << round;
    EXPECT_EQ(e.nodes_created(), 0u) << "replay re-created nodes";
    EXPECT_EQ(g.checksum(), expected) << round;
    // Result readback through the handle works on the replay path too.
    TaskGraphNode* sink = e.find(key_pack(kSide - 1, kSide - 1));
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(sink->computed());
    EXPECT_EQ(e.find(key_pack(77, 77)), nullptr);
  }
}

TEST_P(PlanVariant, AllWorkloadFamiliesReplayEqualsFresh) {
  auto rt = make_runtime(GetParam());
  for (const std::string& name : wl::workload_names()) {
    SCOPED_TRACE(name);
    auto w = wl::make_workload(name, wl::SizePreset::kTiny);
    ASSERT_NE(w, nullptr);
    w->prepare(rt.workers());

    // Fresh GraphSpec submission -> reference checksum + node count (only
    // nodes reachable from the sink execute; num_tasks() can include
    // nodes outside the sink's cone for some families).
    auto spec = w->make_taskgraph_spec(rt.workers(), nabbit::ColoringMode::kGood);
    w->reset();
    Execution fresh_exec = rt.run(*spec, w->taskgraph_sink());
    const std::uint64_t fresh_nodes = fresh_exec.nodes_computed();
    const std::uint64_t fresh = w->checksum();
    EXPECT_GT(fresh_nodes, 0u);

    // Compile once, replay twice; every run bitwise-equal.
    auto plan = rt.compile(*spec, w->taskgraph_sink());
    EXPECT_EQ(plan->num_nodes(), fresh_nodes);
    for (int round = 0; round < 2; ++round) {
      w->reset();
      Execution e = rt.run(*plan);
      EXPECT_EQ(e.nodes_computed(), fresh_nodes) << round;
      EXPECT_EQ(w->checksum(), fresh) << round;
    }
  }
}

TEST_P(PlanVariant, SerializedReplayCountersAreAttributable) {
  auto rt = make_runtime(GetParam());
  WaveGrid g(12, 9);
  WaveSpec spec(&g);
  // Worker counters only move on the scheduled tier.
  auto plan = rt.compile(spec, key_pack(11, 11), /*reserve_instances=*/1,
                         plan::kPassAll & ~plan::kPassTinyLower);
  Execution e = rt.run(*plan);
  EXPECT_TRUE(e.counters_attributable());
  const rt::WorkerCounters& c = e.counters();
  EXPECT_EQ(c.locality.nodes, 144u);  // one sample per replayed node
}

INSTANTIATE_TEST_SUITE_P(BothVariants, PlanVariant,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ------------------------------------------------------- concurrent replay

class PlanConcurrent : public ::testing::TestWithParam<Variant> {};

TEST_P(PlanConcurrent, ManyThreadsReplayOnePlan) {
  // The serving scenario: one compiled plan, several request threads
  // replaying it simultaneously. Each replay runs on its own pooled
  // instance; totals must be exact.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  opts.variant = GetParam();
  api::Runtime rt(opts);

  constexpr std::uint32_t kSide = 12;
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        Execution e = rt.run(*plan);
        if (e.nodes_computed() != std::uint64_t{kSide} * kSide) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(acc.load(), spec.expected_total() * kThreads * kRounds);
  // The pool grew to at most the concurrent-replay depth.
  EXPECT_LE(plan->instances_built(), static_cast<std::size_t>(kThreads));
}

TEST_P(PlanConcurrent, OverlappingSubmissionsOfOnePlanFromOneThread) {
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 10;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));

  constexpr int kInFlight = 5;
  {
    std::vector<Execution> execs;
    for (int i = 0; i < kInFlight; ++i) execs.push_back(rt.submit(*plan));
    for (auto& e : execs) e.wait();
  }
  EXPECT_EQ(acc.load(), spec.expected_total() * kInFlight);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, PlanConcurrent,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ------------------------------------------------------- lazy promotion
//
// A replay runs ready units from a worker-private stack; they become
// stealable only when promoted (a peer is idle, or the stack is full).
// ForkSpec is built so a replay can only finish if promotion happens: its
// two root units A and B each wait, yielding, until the other has started.
// One worker running both in turn would wait forever, so the wait gives up
// after a timeout and the test fails instead of hanging. Each root then
// fans out to `fanout` children joined by the sink; a fanout above the
// private stack's capacity also forces spills into promoted frames.

constexpr Key kForkSink = 0;
constexpr Key kForkA = 1;
constexpr Key kForkB = 2;

struct ForkCtx {
  std::uint32_t fanout = 0;
  /// When set, B cancels this execution after the rendezvous and A waits
  /// for that before returning, so every child is dispatched cancelled.
  std::atomic<Execution*> cancel_target{nullptr};
  bool cancel_after_rendezvous = false;
  std::atomic<int> arrived{0};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> timed_out{false};
  std::atomic<std::uint64_t> children{0};

  /// Yields until `done()` or a 10 s timeout (recorded, never a hang).
  template <typename Done>
  void await(Done done) {
    const std::uint64_t give_up = now_ns() + 10'000'000'000ull;
    while (!done()) {
      if (now_ns() > give_up) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  }

  void root(Key k) {
    const int target = arrived.fetch_add(1) / 2 * 2 + 2;  // per-replay pair
    await([&] { return arrived.load() >= target; });
    if (!cancel_after_rendezvous) return;
    if (k == kForkB) {
      await([&] { return cancel_target.load() != nullptr; });
      if (Execution* e = cancel_target.load()) e->cancel();
      cancelled.store(true);
    } else {
      await([&] { return cancelled.load(); });
    }
  }
};

struct ForkNode final : TaskGraphNode {
  ForkCtx* ctx;
  explicit ForkNode(ForkCtx* c) : ctx(c) {}
  void init(ExecContext&) override {
    const Key k = key();
    if (k == kForkSink) {
      for (const Key r : {kForkA, kForkB}) {
        if (ctx->fanout == 0) add_predecessor(r);
        for (std::uint32_t i = 0; i < ctx->fanout; ++i) {
          add_predecessor(key_pack(static_cast<std::uint32_t>(r), i));
        }
      }
    } else if (k != kForkA && k != kForkB) {
      add_predecessor(key_major(k));  // a child of root A or B
    }
  }
  void compute(ExecContext&) override {
    if (key() == kForkA || key() == kForkB) {
      ctx->root(key());
    } else if (key() != kForkSink) {
      ctx->children.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

struct ForkSpec final : GraphSpec {
  ForkCtx* ctx;
  explicit ForkSpec(ForkCtx* c) : ctx(c) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<ForkNode>(ctx);
  }
  // A and B on different colors, children alternating.
  Color color_of(Key k) const override { return static_cast<Color>(k % 2); }
  std::size_t expected_nodes() const override { return 3 + 2 * ctx->fanout; }
};

/// Two workers, and a plan that is never replayed inline (tiny lowering
/// off), so every replay goes through the scheduler and the unit loop.
std::unique_ptr<GraphPlan> compile_fork(api::Runtime& rt, ForkSpec& spec) {
  return rt.compile(spec, kForkSink, 1, plan::kPassAll & ~plan::kPassTinyLower);
}

class PlanPromotion : public ::testing::TestWithParam<Variant> {};

TEST_P(PlanPromotion, IdlePeerStealsPrivateWork) {
  auto rt = make_runtime(GetParam());
  ForkCtx ctx;
  ForkSpec spec(&ctx);
  auto plan = compile_fork(rt, spec);
  ASSERT_EQ(plan->num_fused_nodes(), 3u);
  ASSERT_EQ(plan->roots().size(), 2u);
  for (int i = 0; i < 20; ++i) {
    Execution e = rt.run(*plan);
    ASSERT_FALSE(ctx.timed_out.load())
        << "replay " << i << ": root units never ran on two workers at once";
    EXPECT_EQ(e.nodes_computed(), 3u);
  }
}

TEST_P(PlanPromotion, CancelInsideAPromotedUnitRetiresEveryNode) {
  auto rt = make_runtime(GetParam());
  ForkCtx ctx;
  ctx.fanout = 100;  // > the private stack's capacity: children spill too
  ctx.cancel_after_rendezvous = true;
  ForkSpec spec(&ctx);
  auto plan = compile_fork(rt, spec);
  Execution e = rt.submit(*plan);
  ctx.cancel_target.store(&e);
  e.wait();
  ASSERT_FALSE(ctx.timed_out.load());
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kCancelled);
  EXPECT_EQ(e.nodes_computed(), 2u);  // A and B; every child came after
  EXPECT_EQ(st.skipped_nodes, plan->num_nodes() - 2);
  EXPECT_EQ(ctx.children.load(), 0u);
}

TEST_P(PlanPromotion, BornExpiredDeadlineRetiresEveryNodeThroughSpills) {
  auto rt = make_runtime(GetParam());
  ForkCtx ctx;
  ctx.fanout = 100;
  ForkSpec spec(&ctx);
  auto plan = compile_fork(rt, spec);
  SubmitOptions so;
  so.deadline_ns = 1;  // long past: cancelled at adoption
  Execution e = rt.run(*plan, so);
  const Status st = e.status();
  EXPECT_EQ(st.state, ExecStatus::kDeadlineExceeded);
  EXPECT_EQ(e.nodes_computed(), 0u);
  EXPECT_EQ(st.skipped_nodes, plan->num_nodes());
  EXPECT_EQ(ctx.arrived.load(), 0);
  // The instance recovered: the next replay runs every node, promoting.
  Execution ok = rt.run(*plan);
  ASSERT_FALSE(ctx.timed_out.load());
  EXPECT_EQ(ok.status().state, ExecStatus::kCompleted);
  EXPECT_EQ(ok.nodes_computed(), plan->num_nodes());
  EXPECT_EQ(ctx.children.load(), 200u);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, PlanPromotion,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ------------------------------------------------------------ replay tiering
//
// A singleton submit() runs the plan inline on the caller when the inline
// tier's measured serial time is under half the scheduled tier's measured
// residency (kPassTinyLower). Replay 0 follows the serial_lowered() prior,
// replay 1 samples the other tier — the inline one only while the
// scheduled replays' node work is under half their residency — and the
// losing tier is re-sampled kTierFirstProbeInterval replays later (then at
// doubling intervals).
// Whether a replay ran scheduled shows in its adoption stamp, which an
// inline replay never gets.

bool ran_scheduled(const Execution& e) { return e.first_dispatch_time_ns() != 0; }

/// Spin-for-a-while fan: `leaves` independent nodes feed the sink (key 0);
/// every node spins `ctx.spin_ns` (read at compute time) and adds its key+1.
struct SpinFanCtx {
  std::uint32_t leaves = 0;
  std::atomic<std::uint64_t> spin_ns{0};
  std::atomic<std::uint64_t> acc{0};
  std::uint64_t expected_total() const {
    return std::uint64_t{leaves + 1} * (leaves + 2) / 2;
  }
};

struct SpinFanNode final : TaskGraphNode {
  SpinFanCtx* ctx;
  explicit SpinFanNode(SpinFanCtx* c) : ctx(c) {}
  void init(ExecContext&) override {
    if (key() != 0) return;
    for (Key k = 1; k <= ctx->leaves; ++k) add_predecessor(k);
  }
  void compute(ExecContext&) override {
    const std::uint64_t spin = ctx->spin_ns.load(std::memory_order_relaxed);
    if (spin != 0) {
      const std::uint64_t until = now_ns() + spin;
      while (now_ns() < until) {
      }
    }
    ctx->acc.fetch_add(key() + 1, std::memory_order_relaxed);
  }
};

struct SpinFanSpec final : GraphSpec {
  SpinFanCtx* ctx;
  explicit SpinFanSpec(SpinFanCtx* c) : ctx(c) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<SpinFanNode>(ctx);
  }
  Color color_of(Key k) const override { return static_cast<Color>(k % 2); }
  std::size_t expected_nodes() const override { return ctx->leaves + 1; }
};

class PlanTier : public ::testing::TestWithParam<Variant> {};

TEST_P(PlanTier, SettledWavefrontRunsInline) {
  // A zero-work 256-node wavefront: far above the tiny-graph prior, but its
  // serial time is a fraction of a scheduler round trip, so once both tiers
  // are measured it comes back done() from submit — allocation-free, and
  // bitwise equal to the serial computation.
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 16;
  WaveGrid g(kSide, 21);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));
  ASSERT_FALSE(plan->serial_lowered());
  const std::uint64_t expected = WaveGrid::expected_checksum(kSide, 21);

  for (int i = 0; i < 2; ++i) {  // replays 0 and 1: one sample per tier
    g.clear();
    Execution e = rt.run(*plan);
    EXPECT_EQ(ran_scheduled(e), i == 0)
        << "replay " << i << ": work " << plan->scheduled_work_ns()
        << " ns, scheduled " << plan->scheduled_estimate_ns() << " ns";
    EXPECT_EQ(g.checksum(), expected);
  }
  EXPECT_NE(plan->inline_estimate_ns(), 0u);
  EXPECT_NE(plan->scheduled_estimate_ns(), 0u);

  constexpr int kReplays = 32;
  int inline_runs = 0;
  std::uint64_t inline_allocs = 0;
  for (int i = 0; i < kReplays; ++i) {
    g.clear();
    counting_alloc::begin();
    bool ran_inline;
    {
      Execution e = rt.submit(*plan);
      const bool done_on_return = e.done();
      e.wait();  // a scheduled replay may be done() on return too
      ran_inline = !ran_scheduled(e);
      EXPECT_TRUE(done_on_return || !ran_inline) << "replay " << i + 2;
    }
    const std::uint64_t allocs = counting_alloc::end();
    if (ran_inline) {
      ++inline_runs;
      inline_allocs += allocs;
    }
    EXPECT_EQ(g.checksum(), expected) << "replay " << i + 2;
  }
  // Replays 2..33 hold one scheduled re-sample (replay 17). On a loaded
  // host a preempted inline sample can push the mean past R/2, and the plan
  // then stays scheduled until the next re-sample, up to 16 replays later.
  EXPECT_GE(inline_runs, kReplays / 2)
      << "inline " << plan->inline_estimate_ns() << " ns, scheduled "
      << plan->scheduled_estimate_ns() << " ns";
  EXPECT_EQ(inline_allocs, 0u) << "inline replay heap-allocated";
}

TEST_P(PlanTier, HeavyParallelPlanStaysScheduled) {
  // 32 independent 2 ms leaves: 64 ms of node work, about half that on the
  // two workers. Replay 0 runs scheduled (33 nodes: the prior) and measures
  // that work. A serial run takes at least the work, which is more than
  // half any residency, so it cannot win: no replay is serialized, not even
  // as a re-sample, and the inline tier is never measured.
  auto rt = make_runtime(GetParam());
  SpinFanCtx ctx;
  ctx.leaves = 32;
  ctx.spin_ns = 2'000'000;
  SpinFanSpec spec(&ctx);
  auto plan = rt.compile(spec, 0);
  ASSERT_FALSE(plan->serial_lowered());
  constexpr std::uint32_t kReplays = 2 * plan::kTierFirstProbeInterval + 2;
  for (std::uint32_t i = 0; i < kReplays; ++i) {
    Execution e = rt.run(*plan);
    EXPECT_TRUE(ran_scheduled(e))
        << "replay " << i << " ran inline: work " << plan->scheduled_work_ns()
        << " ns, scheduled " << plan->scheduled_estimate_ns() << " ns";
    EXPECT_EQ(e.nodes_computed(), 33u);
  }
  EXPECT_EQ(plan->inline_estimate_ns(), 0u);
  EXPECT_GE(plan->scheduled_work_ns(), std::uint64_t{32} * 2'000'000);
  EXPECT_EQ(ctx.acc.load(), ctx.expected_total() * kReplays);
}

TEST_P(PlanTier, MaskedLoweringNeverRunsInline) {
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 4;  // 16 nodes: inline by the prior
  WaveGrid g(kSide, 5);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/1,
                         plan::kPassAll & ~plan::kPassTinyLower);
  ASSERT_FALSE(plan->serial_lowered());
  for (std::uint32_t i = 0; i < 2 * plan::kTierFirstProbeInterval; ++i) {
    g.clear();
    Execution e = rt.run(*plan);
    EXPECT_TRUE(ran_scheduled(e)) << "replay " << i << " ran inline";
    EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(kSide, 5));
  }
  EXPECT_EQ(plan->inline_estimate_ns(), 0u);
  EXPECT_EQ(plan->scheduled_estimate_ns(), 0u);
}

TEST_P(PlanTier, ConcurrentReplaysAcrossTierChanges) {
  // Four threads replay one plan through three phases: zero-work nodes
  // (inline wins), 20 us nodes (64 of them: the two workers win), zero work
  // again. Every replay must be exact whichever tier ran it, the pool must
  // refill and the arenas stay bounded.
  auto rt = make_runtime(GetParam());
  SpinFanCtx ctx;
  ctx.leaves = 63;
  SpinFanSpec spec(&ctx);
  auto plan = rt.compile(spec, 0, /*reserve_instances=*/4);
  constexpr int kThreads = 4;
  constexpr int kPerPhase = 40;
  std::atomic<int> wrong{0}, scheduled{0}, inlined{0};
  for (const std::uint64_t spin : {0ull, 20'000ull, 0ull}) {
    ctx.spin_ns.store(spin);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int r = 0; r < kPerPhase; ++r) {
          Execution e = rt.run(*plan);
          if (e.nodes_computed() != 64u) wrong.fetch_add(1);
          (ran_scheduled(e) ? scheduled : inlined).fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ctx.acc.load(), ctx.expected_total() * 3 * kThreads * kPerPhase);
  EXPECT_GT(scheduled.load(), 0);
  EXPECT_GT(inlined.load(), 0);
  rt.wait_idle();
  EXPECT_EQ(plan->instances_free(), plan->instances_built());
  EXPECT_LE(plan->instances_built(), static_cast<std::size_t>(kThreads));
  // Two workers, 64 KiB frame blocks, recycled per finished job: a leak
  // would grow with the 480 replays.
  EXPECT_LE(rt.arena_bytes(), std::size_t{1} << 20);
}

TEST_P(PlanTier, BlobRoundTripMeasuresAgain) {
  // The tier is runtime state: a restored plan keeps the compile-time prior
  // but none of the measurements, and measures afresh.
  auto rt = make_runtime(GetParam());
  constexpr std::uint32_t kSide = 4;
  WaveGrid g(kSide, 8);
  WaveSpec spec(&g);
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));
  for (int i = 0; i < 3; ++i) rt.run(*plan);
  ASSERT_NE(plan->inline_estimate_ns(), 0u);
  ASSERT_NE(plan->scheduled_estimate_ns(), 0u);

  const auto blob = persist::serialize_plan(*plan, /*spec_bytes=*/{},
                                            /*spec_hash=*/7);
  auto backing = std::make_shared<std::vector<std::uint8_t>>(blob);
  persist::PlanBlobView view;
  ASSERT_EQ(view.parse({backing->data(), backing->size()}),
            persist::BlobError::kOk);
  auto restored = rt.restore_plan(spec, key_pack(kSide - 1, kSide - 1),
                                  view.frozen(backing), view.colored(),
                                  view.count_locality());
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->serial_lowered());
  EXPECT_EQ(restored->inline_estimate_ns(), 0u);
  EXPECT_EQ(restored->scheduled_estimate_ns(), 0u);
  for (int i = 0; i < 2; ++i) {
    g.clear();
    Execution e = rt.run(*restored);
    EXPECT_EQ(ran_scheduled(e), i == 1) << "restored replay " << i;
    EXPECT_EQ(g.checksum(), WaveGrid::expected_checksum(kSide, 8));
  }
  EXPECT_NE(restored->inline_estimate_ns(), 0u);
  EXPECT_NE(restored->scheduled_estimate_ns(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, PlanTier,
                         ::testing::Values(Variant::kNabbit, Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(variant_name(info.param));
                         });

// ------------------------------------------------------------- allocations

TEST(PlanAlloc, SteadyStateReplayIsAllocationFree) {
  // THE acceptance property of the replay path: once the instance pool and
  // the workers' frame arenas are warm, a replay submission performs zero
  // heap allocations end to end — acquire+reset, scheduler injection, the
  // whole CSR walk, and handle release all reuse pooled storage. This is
  // the scheduled tier (tiering masked); PlanTier.SettledWavefrontRunsInline
  // checks the inline tier.
  for (Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    auto rt = make_runtime(v);
    constexpr std::uint32_t kSide = 20;
    std::atomic<std::uint64_t> acc{0};
    AccumSpec spec(&acc, kSide);
    auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                           /*reserve_instances=*/1,
                           plan::kPassAll & ~plan::kPassTinyLower);

    // Warm up: arenas reach their high-watermark, the pool its depth.
    for (int i = 0; i < 12; ++i) rt.run(*plan);
    rt.wait_idle();

    counting_alloc::begin();
    for (int i = 0; i < 8; ++i) rt.run(*plan);
    const std::uint64_t allocs = counting_alloc::end();

    EXPECT_EQ(allocs, 0u)
        << "steady-state plan replay heap-allocated (variant "
        << variant_name(v) << ")";
    EXPECT_EQ(acc.load(), spec.expected_total() * 20);
  }
}

TEST(PlanAlloc, PromotingReplayIsAllocationFree) {
  // Promotion draws its frames from the worker arenas, never the heap: a
  // replay that must promote (ForkSpec's rendezvous) and spill (fanout
  // beyond the private stack) stays allocation-free at steady state.
  for (Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    auto rt = make_runtime(v);
    ForkCtx ctx;
    ctx.fanout = 100;
    ForkSpec spec(&ctx);
    auto plan = compile_fork(rt, spec);
    for (int i = 0; i < 12; ++i) rt.run(*plan);
    rt.wait_idle();

    counting_alloc::begin();
    for (int i = 0; i < 8; ++i) rt.run(*plan);
    const std::uint64_t allocs = counting_alloc::end();

    EXPECT_EQ(allocs, 0u) << "promoting plan replay heap-allocated (variant "
                          << variant_name(v) << ")";
    EXPECT_FALSE(ctx.timed_out.load());
    EXPECT_EQ(ctx.children.load(), 200u * 20);
  }
}

TEST(PlanAlloc, SubmitOptionsKeepSteadyStateAllocationFree) {
  // Submission control must not tax the serving hot path: priority lanes
  // are fixed arrays, the deadline is a plain store, the name is not
  // copied, the completion hook is a function pointer plus a context — so
  // a replay submitted with ANY SubmitOptions value (and a cancelled one)
  // still performs zero heap allocations at steady state.
  auto rt = make_runtime(Variant::kNabbitC);
  constexpr std::uint32_t kSide = 16;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  // The priority lanes and adoption-time deadline are the scheduled tier's.
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve_instances=*/1,
                         plan::kPassAll & ~plan::kPassTinyLower);

  SubmitOptions hot;
  hot.priority = Priority::kHigh;
  hot.deadline_ns = deadline_in(std::chrono::hours(1));
  hot.name = "hot-path";
  std::atomic<int> hooks{0};
  hot.on_complete = {[](void* ctx) noexcept {
                       static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
                     },
                     &hooks};
  for (int i = 0; i < 12; ++i) rt.run(*plan, hot);  // warm up
  rt.wait_idle();

  counting_alloc::begin();
  for (int i = 0; i < 8; ++i) rt.run(*plan, hot);
  {
    // A cancelled round trip is also allocation-free end to end.
    Execution e = rt.submit(*plan, hot);
    e.cancel();
    e.wait();
  }
  const std::uint64_t allocs = counting_alloc::end();

  EXPECT_EQ(allocs, 0u)
      << "SubmitOptions submission heap-allocated at steady state";
  rt.wait_idle();
  // Every run() and the cancelled submit announced itself exactly once
  // (the hook can trail wait(); wait for the last one).
  const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
  while (hooks.load() != 21 && now_ns() < deadline) std::this_thread::yield();
  EXPECT_EQ(hooks.load(), 21);
}

/// One node (key 0) that holds its worker from compute() until `release`.
struct HoldCtx {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
};

struct HoldNode final : TaskGraphNode {
  HoldCtx* ctx;
  explicit HoldNode(HoldCtx* c) : ctx(c) {}
  void init(ExecContext&) override {}
  void compute(ExecContext&) override {
    ctx->started.store(true);
    while (!ctx->release.load()) std::this_thread::yield();
  }
};

struct HoldSpec final : GraphSpec {
  HoldCtx* ctx;
  explicit HoldSpec(HoldCtx* c) : ctx(c) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<HoldNode>(ctx);
  }
  Color color_of(Key) const override { return 0; }
  std::size_t expected_nodes() const override { return 1; }
};

TEST(PlanAlloc, FirstScheduledReplayAfterInlineStretchIsAllocationFree) {
  // Each worker's frame arena maps its first block when the runtime starts,
  // so a worker's first promotion never heap-allocates, however late it
  // comes. Here it is the first scheduled re-sample of a wavefront that
  // settled inline on a fresh runtime: replay 0 (scheduled, the prior at
  // 256 nodes) runs while a holder job occupies the other worker, so it
  // cannot promote and no arena is touched before the counted window.
  for (Variant v : {Variant::kNabbit, Variant::kNabbitC}) {
    auto rt = make_runtime(v);
    HoldCtx hold;
    HoldSpec hold_spec(&hold);
    auto holder = rt.compile(hold_spec, 0, /*reserve_instances=*/1,
                             plan::kPassAll & ~plan::kPassTinyLower);
    constexpr std::uint32_t kSide = 16;
    WaveGrid g(kSide, 33);
    WaveSpec spec(&g);
    auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1));
    const std::uint64_t expected = WaveGrid::expected_checksum(kSide, 33);
    {
      Execution h = rt.submit(*holder);
      while (!hold.started.load()) std::this_thread::yield();
      Execution e = rt.run(*plan);
      EXPECT_TRUE(ran_scheduled(e));
      EXPECT_EQ(g.checksum(), expected);
      hold.release.store(true);
      h.wait();
    }
    rt.wait_idle();

    // Replay 1 samples the inline tier; the first scheduled replay after
    // it is the re-sample (replay 17 once the plan settles inline).
    bool scheduled = false;
    int replays = 0;
    counting_alloc::begin();
    while (!scheduled && replays < 2 * int{plan::kTierFirstProbeInterval}) {
      g.clear();
      Execution e = rt.run(*plan);
      scheduled = ran_scheduled(e);
      ++replays;
    }
    const std::uint64_t allocs = counting_alloc::end();
    ASSERT_TRUE(scheduled) << "no scheduled replay in " << replays;
    EXPECT_EQ(g.checksum(), expected);
    EXPECT_EQ(allocs, 0u) << "the first scheduled replay after " << replays - 1
                          << " inline ones heap-allocated (variant "
                          << variant_name(v) << ")";
  }
}

// ------------------------------------------------------- bounded arenas

TEST(PlanArena, NeverQuiescentSubmissionChainHoldsArenaBytesBounded) {
  // THE regression guard for the epoch-segmented arena fix, built so the
  // pool provably NEVER reaches quiescence: job i spawns a burst of frames
  // and then refuses to return until job i+1 has been submitted, so
  // active_jobs >= 1 from the first submit to the last completion. The old
  // rewind-at-quiescence scheme never fires in this scenario and frame
  // memory grows with the job count; epoch reclamation recycles each job's
  // blocks as soon as it completes (disabling it makes this test fail by
  // megabytes). Jobs additionally gate on their predecessor's completion,
  // which pins the live-overlap window to ~2 jobs — the reclamation
  // watermark then advances deterministically, keeping the bound tight
  // even when the OS stalls one worker (this box has a single core).
  //
  // Cancellation stress rides along: every few chain jobs the test also
  // submits a plan replay and cancels it immediately (some at high
  // priority, some with an already-expired deadline). Cancelled runs must
  // release their epoch-stamped arena blocks and pooled instances exactly
  // like completed ones, or the bound below breaks — this is the
  // arena_bytes()-under-cancellation-heavy-overlap regression guard.
  auto rt = make_runtime(Variant::kNabbit);
  rt::Scheduler& sched = rt.scheduler();

  constexpr std::uint32_t kSide = 12;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec accum_spec(&acc, kSide);
  // Overlap needs scheduled replays: tiering masked.
  auto plan = rt.compile(accum_spec, key_pack(kSide - 1, kSide - 1),
                         /*reserve=*/2, plan::kPassAll & ~plan::kPassTinyLower);

  constexpr int kJobs = 300;
  constexpr int kWarmJob = 60;
  constexpr int kSpawnsPerJob = 64;
  constexpr int kCancelEvery = 20;
  std::atomic<int> submitted{0};
  std::vector<std::unique_ptr<rt::Scheduler::RootJob>> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(std::make_unique<rt::Scheduler::RootJob>());
  }
  for (int i = 0; i < kJobs; ++i) {
    jobs[static_cast<std::size_t>(i)]->fn = [&submitted, &jobs, i](rt::Worker& w) {
      rt::TaskGroup g;
      for (int s = 0; s < kSpawnsPerJob; ++s) {
        // Fat capture = fat arena frame: real per-job frame pressure.
        std::array<char, 160> pad{};
        pad[0] = static_cast<char>(s);
        g.spawn(w, rt::ColorMask{}, [pad](rt::Worker&) {
          volatile char sink = pad[0];
          (void)sink;
        });
      }
      g.wait(w);
      Backoff backoff;
      while (i + 1 < kJobs &&
             submitted.load(std::memory_order_acquire) < i + 2) {
        backoff.pause();
      }
      while (i > 0 && !jobs[static_cast<std::size_t>(i) - 1]->done.load(
                          std::memory_order_acquire)) {
        backoff.pause();
      }
    };
  }

  // Submit without ever blocking: a wait here would deadlock against the
  // refuse-to-finish chain (job i cannot return until i+1 is submitted).
  // The interleaved replays are cancelled right after submission and their
  // handles parked in `cancelled` (handle release waits, so they are only
  // dropped after the chain resolves).
  std::vector<Execution> cancelled;
  std::size_t warm_bytes = 0;
  for (int i = 0; i < kJobs; ++i) {
    sched.submit(*jobs[i]);
    submitted.store(i + 1, std::memory_order_release);
    if (i % kCancelEvery == 0) {
      SubmitOptions so;
      so.priority = (i / kCancelEvery) % 2 == 0 ? Priority::kHigh : Priority::kLow;
      if ((i / kCancelEvery) % 3 == 0) so.deadline_ns = 1;  // born expired
      Execution e = rt.submit(*plan, so);
      e.cancel();
      cancelled.push_back(std::move(e));
    }
    if (i == kWarmJob) {
      // Record the warm high-watermark once real work has demonstrably run.
      // Polling done (not sched.wait) keeps this thread non-blocking; job
      // kWarmJob/2 only needs submissions this loop already made.
      Backoff backoff;
      while (!jobs[kWarmJob / 2]->done.load(std::memory_order_acquire)) {
        backoff.pause();
      }
      warm_bytes = rt.arena_bytes();
    }
  }
  for (int i = 0; i < kJobs; ++i) sched.wait(*jobs[i]);
  for (auto& e : cancelled) {
    e.wait();
    const Status st = e.status();
    EXPECT_TRUE(st.state == ExecStatus::kCancelled ||
                st.state == ExecStatus::kDeadlineExceeded ||
                st.state == ExecStatus::kCompleted);
    EXPECT_EQ(e.nodes_computed() + st.skipped_nodes,
              std::uint64_t{kSide} * kSide);
  }
  cancelled.clear();  // release every instance back to the pool
  const std::size_t end_bytes = rt.arena_bytes();

  EXPECT_GT(warm_bytes, 0u);
  // arena_bytes() counts mapped blocks, which are never unmapped — so any
  // missed reclamation (chain jobs OR cancelled replays) shows up here
  // permanently.
  EXPECT_LE(end_bytes, warm_bytes * 2 + (std::size_t{256} << 10))
      << "frame arenas grew while the pool was never quiescent (warm="
      << warm_bytes << ", end=" << end_bytes << ")";
  // Cancelled replays returned their instances (pool bounded by the
  // in-flight replay depth, which handle parking caps at the submit count),
  // and a recycled instance replays correctly after any partial run.
  rt.wait_idle();
  EXPECT_LE(plan->instances_built(),
            static_cast<std::size_t>(kJobs / kCancelEvery) + 1);
  acc.store(0);
  Execution ok = rt.run(*plan);
  EXPECT_EQ(ok.status().state, ExecStatus::kCompleted);
  EXPECT_EQ(acc.load(), accum_spec.expected_total());
  EXPECT_EQ(ok.nodes_created(), 0u) << "post-cancel replay missed the pool";
}

TEST(PlanArena, ContinuousOverlappingReplayHoldsArenaBytesBounded) {
  // Regression guard for the epoch-segmented arena fix: keep >= 1 execution
  // in flight at ALL times (the pool never reaches quiescence, so the old
  // rewind-at-quiescence scheme never fired and memory grew per
  // submission). With per-epoch block reclamation, the high-watermark
  // reached during warm-up must hold for hundreds of further rounds.
  auto rt = make_runtime(Variant::kNabbitC);
  constexpr std::uint32_t kSide = 20;
  std::atomic<std::uint64_t> acc{0};
  AccumSpec spec(&acc, kSide);
  // Overlap needs scheduled replays: tiering masked.
  auto plan = rt.compile(spec, key_pack(kSide - 1, kSide - 1), /*reserve=*/2,
                         plan::kPassAll & ~plan::kPassTinyLower);

  auto overlap_rounds = [&](int rounds, Execution prev) {
    for (int i = 0; i < rounds; ++i) {
      Execution next = rt.submit(*plan);  // submitted BEFORE prev completes
      prev.wait();
      prev = std::move(next);
    }
    return prev;
  };

  Execution prev = overlap_rounds(60, rt.submit(*plan));
  const std::size_t warm_bytes = rt.arena_bytes();
  prev = overlap_rounds(300, std::move(prev));
  prev.wait();
  const std::size_t end_bytes = rt.arena_bytes();

  EXPECT_GT(warm_bytes, 0u);
  // Without reclamation this grows by ~300 submissions' worth of frames
  // (tens of MB); with it, at most scheduling jitter above the warm
  // high-watermark.
  EXPECT_LE(end_bytes, warm_bytes * 2 + (std::size_t{256} << 10))
      << "frame arenas grew under continuous overlapping replay (warm="
      << warm_bytes << ", end=" << end_bytes << ")";
}

}  // namespace
}  // namespace nabbitc::api
