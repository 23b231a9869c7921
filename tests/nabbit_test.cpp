// Tests for the Nabbit task-graph engine: concurrent map, successor lists,
// serial / dynamic / static executors, and execution-protocol invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/nabbitc.h"
#include "nabbit/concurrent_map.h"
#include "nabbit/successor_list.h"
#include "support/rng.h"

namespace nabbitc::nabbit {
namespace {

// ---------------------------------------------------------- successor list

class NopNode final : public TaskGraphNode {
 public:
  void init(ExecContext&) override {}
  void compute(ExecContext&) override {}
};

std::vector<TaskGraphNode*> chain_to_vector(SuccessorCell* chain) {
  std::vector<TaskGraphNode*> out;
  for (SuccessorCell* c = chain; c != nullptr; c = c->next) out.push_back(c->node);
  return out;
}

TEST(SuccessorList, AddThenCloseReturnsAll) {
  SuccessorList sl;
  NopNode a, b;
  SuccessorCell cells[2];
  EXPECT_TRUE(sl.try_add(&a, &cells[0]));
  EXPECT_TRUE(sl.try_add(&b, &cells[1]));
  EXPECT_EQ(sl.size(), 2u);
  auto out = chain_to_vector(sl.close_and_take());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(sl.closed());
}

TEST(SuccessorList, AddAfterCloseFails) {
  SuccessorList sl;
  NopNode a;
  SuccessorCell cell;
  EXPECT_EQ(sl.close_and_take(), nullptr);
  EXPECT_FALSE(sl.try_add(&a, &cell));
  EXPECT_EQ(sl.size(), 0u);
}

TEST(SuccessorList, ConcurrentAddVsCloseLosesNothing) {
  // Every successfully added node must be visible in the taken chain; a
  // failed add means the adder saw the closed sentinel. Repeat to shake
  // races.
  for (int round = 0; round < 50; ++round) {
    SuccessorList sl;
    std::vector<NopNode> nodes(32);
    std::vector<SuccessorCell> cells(32);
    std::atomic<int> added{0};
    std::thread adder([&] {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (sl.try_add(&nodes[i], &cells[i])) added.fetch_add(1);
      }
    });
    auto taken = chain_to_vector(sl.close_and_take());
    adder.join();
    // Stragglers that added after our close... cannot exist: close happened
    // before join, and failed adds aren't counted.
    EXPECT_EQ(static_cast<int>(taken.size()), added.load());
  }
}

TEST(SuccessorList, ManyAddersRacingOneCloseNoLossNoDuplicate) {
  // Several threads push disjoint node sets while one closer races them:
  // the taken chain must contain exactly the successfully-added nodes,
  // each exactly once, and all post-close adds must fail.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  for (int round = 0; round < 25; ++round) {
    SuccessorList sl;
    std::vector<NopNode> nodes(kThreads * kPerThread);
    std::vector<SuccessorCell> cells(nodes.size());
    std::vector<std::vector<TaskGraphNode*>> added(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> adders;
    for (int t = 0; t < kThreads; ++t) {
      adders.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {}
        for (int i = 0; i < kPerThread; ++i) {
          const int idx = t * kPerThread + i;
          if (sl.try_add(&nodes[idx], &cells[idx])) {
            added[t].push_back(&nodes[idx]);
          } else {
            // Once closed, every later add must also fail.
            SuccessorCell dead;
            EXPECT_FALSE(sl.try_add(&nodes[idx], &dead));
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    auto taken = chain_to_vector(sl.close_and_take());
    for (auto& th : adders) th.join();

    std::set<TaskGraphNode*> taken_set(taken.begin(), taken.end());
    EXPECT_EQ(taken_set.size(), taken.size()) << "duplicate successor";
    std::size_t total_added = 0;
    for (const auto& v : added) {
      total_added += v.size();
      for (TaskGraphNode* n : v) EXPECT_TRUE(taken_set.count(n)) << "lost successor";
    }
    EXPECT_EQ(taken.size(), total_added);
  }
}

// ----------------------------------------------------------- concurrent map

class KeyNode final : public TaskGraphNode {
 public:
  void init(ExecContext&) override {}
  void compute(ExecContext&) override {}
};

TEST(ConcurrentMap, InsertOrGetCreatesOnce) {
  ConcurrentNodeMap map(16);
  auto [n1, c1] = map.insert_or_get(7, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  auto [n2, c2] =
      map.insert_or_get(7, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  EXPECT_TRUE(c1);
  EXPECT_FALSE(c2);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(map.size(), 1u);
}

TEST(ConcurrentMap, FindMissingIsNull) {
  ConcurrentNodeMap map(16);
  EXPECT_EQ(map.find(123), nullptr);
  map.insert_or_get(123, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  EXPECT_NE(map.find(123), nullptr);
  EXPECT_EQ(map.find(124), nullptr);
}

TEST(ConcurrentMap, HandlesKeyZeroAndMax) {
  ConcurrentNodeMap map(4);
  map.insert_or_get(0, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  map.insert_or_get(~Key{0}, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  EXPECT_NE(map.find(0), nullptr);
  EXPECT_NE(map.find(~Key{0}), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(ConcurrentMap, GrowsBeyondInitialCapacity) {
  ConcurrentNodeMap map(4);  // tiny per-shard capacity
  for (Key k = 0; k < 5000; ++k) {
    map.insert_or_get(k, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  }
  EXPECT_EQ(map.size(), 5000u);
  for (Key k = 0; k < 5000; ++k) ASSERT_NE(map.find(k), nullptr) << k;
}

TEST(ConcurrentMap, ForEachVisitsEverything) {
  ConcurrentNodeMap map(16);
  for (Key k = 100; k < 200; ++k) {
    map.insert_or_get(k, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
  }
  std::set<Key> seen;
  map.for_each([&](Key k, TaskGraphNode*) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 100u);
}

TEST(ConcurrentMap, ConcurrentInsertOrGetExactlyOneWinner) {
  constexpr int kThreads = 4;
  constexpr Key kKeys = 2000;
  ConcurrentNodeMap map(64);
  std::atomic<int> creations{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Pcg32 rng(t, 5);
      for (int i = 0; i < 20000; ++i) {
        Key k = rng.next() % kKeys;
        auto [node, created] = map.insert_or_get(k, [](NodeArena& a, Key) { return a.create<KeyNode>(); });
        ASSERT_NE(node, nullptr);
        if (created) creations.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(creations.load()));
  EXPECT_LE(map.size(), static_cast<std::size_t>(kKeys));
}

TEST(ConcurrentMap, CacheLinePaddedNodesAreAlignedInSlabs) {
  struct alignas(64) PaddedNode final : TaskGraphNode {
    std::uint64_t payload[8];
    void init(ExecContext&) override {}
    void compute(ExecContext&) override {}
  };
  ConcurrentNodeMap map(256);
  for (Key k = 0; k < 256; ++k) {
    auto [n, created] = map.insert_or_get(
        k, [](NodeArena& a, Key) { return a.create<PaddedNode>(); });
    ASSERT_TRUE(created);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(n) % 64, 0u) << "key " << k;
  }
}

TEST(ConcurrentMap, RaceLoserNeverConstructsANode) {
  // The slot is reserved under the shard lock, so the factory runs exactly
  // once per key no matter how many threads race insert_or_get: node
  // constructions must equal map entries. (The previous implementation let
  // every racer construct a speculative node and destroy it on losing.)
  struct CountingNode final : TaskGraphNode {
    explicit CountingNode(std::atomic<int>* c) { c->fetch_add(1); }
    void init(ExecContext&) override {}
    void compute(ExecContext&) override {}
  };
  constexpr int kThreads = 4;
  constexpr Key kKeys = 512;
  ConcurrentNodeMap map(kKeys);
  std::atomic<int> constructions{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (Key k = 0; k < kKeys; ++k) {
        map.insert_or_get(k, [&](NodeArena& a, Key) {
          return a.create<CountingNode>(&constructions);
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(constructions.load(), static_cast<int>(kKeys));
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
}

// ------------------------------------------------------------ test graphs

/// Chain with a fan: key k depends on k-1 and (for even k) k/2.
/// Records compute order for protocol checks.
struct OrderRecorder {
  std::mutex mu;
  std::vector<Key> order;
  std::atomic<int> computes{0};

  void record(Key k) {
    computes.fetch_add(1);
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(k);
  }
};

class RecordingNode final : public TaskGraphNode {
 public:
  explicit RecordingNode(OrderRecorder* rec) : rec_(rec) {}
  void init(ExecContext&) override {
    Key k = key();
    if (k > 0) {
      add_predecessor(k - 1);
      if (k % 2 == 0 && k / 2 != k - 1) add_predecessor(k / 2);
    }
  }
  void compute(ExecContext&) override { rec_->record(key()); }

 private:
  OrderRecorder* rec_;
};

class RecordingSpec final : public GraphSpec {
 public:
  explicit RecordingSpec(OrderRecorder* rec) : rec_(rec) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<RecordingNode>(rec_);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(k % 4);
  }

 private:
  OrderRecorder* rec_;
};

void expect_topological(const std::vector<Key>& order, Key n) {
  std::vector<int> pos(n + 1, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = static_cast<int>(i);
  }
  for (Key k = 0; k <= n; ++k) ASSERT_GE(pos[k], 0) << "node " << k << " missing";
  for (Key k = 1; k <= n; ++k) {
    EXPECT_LT(pos[k - 1], pos[k]);
    if (k % 2 == 0 && k / 2 != k - 1) {
      EXPECT_LT(pos[k / 2], pos[k]);
    }
  }
}

// ---------------------------------------------------------- serial executor

TEST(SerialExecutor, ComputesAllInTopologicalOrder) {
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  SerialExecutor ex(spec);
  ex.run(300);
  EXPECT_EQ(rec.computes.load(), 301);
  EXPECT_EQ(ex.nodes_computed(), 301u);
  expect_topological(rec.order, 300);
}

TEST(SerialExecutor, FindReturnsComputedNodes) {
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  SerialExecutor ex(spec);
  ex.run(10);
  for (Key k = 0; k <= 10; ++k) {
    auto* n = ex.find(k);
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(n->computed());
    EXPECT_EQ(n->key(), k);
    EXPECT_EQ(n->color(), static_cast<numa::Color>(k % 4));
  }
  EXPECT_EQ(ex.find(11), nullptr);
}

TEST(SerialExecutor, RerunIsNoop) {
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  SerialExecutor ex(spec);
  ex.run(5);
  int first = rec.computes.load();
  ex.run(5);
  EXPECT_EQ(rec.computes.load(), first);
}

class CyclicSpec final : public GraphSpec {
 public:
  TaskGraphNode* create(NodeArena& arena, Key) override {
    class N final : public TaskGraphNode {
      void init(ExecContext&) override { add_predecessor((key() + 1) % 3); }
      void compute(ExecContext&) override {}
    };
    return arena.create<N>();
  }
};

TEST(SerialExecutorDeath, DetectsCycle) {
  CyclicSpec spec;
  SerialExecutor ex(spec);
  EXPECT_DEATH(ex.run(0), "cycle");
}

// --------------------------------------------------------- dynamic executor

class DynExecTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DynExecTest, ComputesEveryNodeExactlyOnceInOrder) {
  auto [workers, colored] = GetParam();
  api::RuntimeOptions opts;
  opts.workers = static_cast<std::uint32_t>(workers);
  opts.topology = numa::Topology(2, 2);
  opts.variant = colored ? api::Variant::kNabbitC : api::Variant::kNabbit;
  api::Runtime rt(opts);

  OrderRecorder rec;
  RecordingSpec spec(&rec);
  api::Execution e = rt.run(spec, 200);
  EXPECT_EQ(rec.computes.load(), 201);
  EXPECT_EQ(e.nodes_computed(), 201u);
  EXPECT_EQ(e.nodes_created(), 201u);
  expect_topological(rec.order, 200);
}

INSTANTIATE_TEST_SUITE_P(WorkersAndPolicies, DynExecTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Bool()));

TEST(DynamicExecutor, OnDemandOnlyCreatesReachableNodes) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  // Sink 9: reachable set is {9,8,...,0} via k-1 edges plus halves — but
  // nothing beyond 9 may be created.
  api::Execution e = rt.run(spec, 9);
  EXPECT_EQ(e.find(10), nullptr);
  EXPECT_NE(e.find(9), nullptr);
  EXPECT_EQ(e.nodes_created(), 10u);
}

TEST(DynamicExecutor, RandomDagsStress) {
  // Random DAGs: node k depends on a few random nodes < k. Run on a few
  // worker counts with both policies; every node computed exactly once.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Pcg32 rng(seed, 31);
    const Key n = 400;
    std::vector<std::vector<Key>> preds(n + 1);
    for (Key k = 1; k <= n; ++k) {
      preds[k].push_back(rng.next64() % k);  // stay connected-ish
      if (rng.uniform() < 0.5) preds[k].push_back(rng.next64() % k);
      if (k > 0) preds[k].push_back(k - 1);  // guarantee a single sink
    }

    struct RandomNode final : TaskGraphNode {
      const std::vector<Key>* my_preds;
      std::atomic<int>* computes;
      void init(ExecContext&) override {
        for (Key p : *my_preds) add_predecessor(p);
      }
      void compute(ExecContext& ctx) override {
        for (Key p : *my_preds) {
          auto* pn = ctx.find(p);
          ASSERT_NE(pn, nullptr);
          EXPECT_TRUE(pn->computed());
        }
        computes->fetch_add(1);
      }
    };
    struct RandomSpec final : GraphSpec {
      std::vector<std::vector<Key>>* preds;
      std::atomic<int>* computes;
      TaskGraphNode* create(NodeArena& arena, Key k) override {
        auto* node = arena.create<RandomNode>();
        node->my_preds = &(*preds)[k];
        node->computes = computes;
        return node;
      }
      numa::Color color_of(Key k) const override {
        return static_cast<numa::Color>(k % 3);
      }
    };

    std::atomic<int> computes{0};
    RandomSpec spec;
    spec.preds = &preds;
    spec.computes = &computes;

    api::RuntimeOptions opts;
    opts.workers = 4;
    opts.topology = numa::Topology(2, 2);
    opts.seed = seed;
    opts.variant = api::Variant::kNabbit;
    api::Runtime rt(opts);
    rt.run(spec, n);
    EXPECT_EQ(computes.load(), static_cast<int>(n) + 1);
  }
}

TEST(DynamicExecutor, LocalityCountersPopulated) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  rt.run(spec, 100);
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 101u);
  EXPECT_GT(agg.locality.pred_accesses, 0u);
}

TEST(DynamicExecutor, LocalityCountingCanBeDisabled) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.count_locality = false;
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  rt.run(spec, 50);
  EXPECT_EQ(rt.counters().locality.nodes, 0u);
}

TEST(DynamicExecutor, SingleNodeGraph) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  OrderRecorder rec;
  RecordingSpec spec(&rec);
  rt.run(spec, 0);  // node 0 has no predecessors
  EXPECT_EQ(rec.computes.load(), 1);
}

// ---------------------------------------------------------- static executor

TEST(StaticExecutor, DiamondGraph) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.variant = api::Variant::kNabbit;  // plain static executor
  api::Runtime rt(opts);
  auto exp = rt.static_graph();
  StaticExecutor& ex = *exp;

  OrderRecorder rec;
  struct N final : TaskGraphNode {
    OrderRecorder* rec;
    std::vector<Key> ps;
    void init(ExecContext&) override {
      for (Key p : ps) add_predecessor(p);
    }
    void compute(ExecContext&) override { rec->record(key()); }
  };
  auto mk = [&](std::vector<Key> ps) {
    auto n = std::make_unique<N>();
    n->rec = &rec;
    n->ps = std::move(ps);
    return n;
  };
  ex.add_node(0, 0, mk({}));
  ex.add_node(1, 1, mk({0}));
  ex.add_node(2, 2, mk({0}));
  ex.add_node(3, 3, mk({1, 2}));
  ex.prepare();
  EXPECT_EQ(ex.num_roots(), 1u);
  ex.run();
  ASSERT_EQ(rec.order.size(), 4u);
  EXPECT_EQ(rec.order.front(), 0u);
  EXPECT_EQ(rec.order.back(), 3u);
  for (Key k = 0; k < 4; ++k) EXPECT_TRUE(ex.find(k)->computed());
}

TEST(StaticExecutor, ResetAllowsRerun) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.variant = api::Variant::kNabbit;
  api::Runtime rt(opts);
  auto exp = rt.static_graph();
  StaticExecutor& ex = *exp;
  std::atomic<int> computes{0};
  struct N final : TaskGraphNode {
    std::atomic<int>* c;
    Key pred;
    bool has_pred;
    void init(ExecContext&) override {
      if (has_pred) add_predecessor(pred);
    }
    void compute(ExecContext&) override { c->fetch_add(1); }
  };
  for (Key k = 0; k < 20; ++k) {
    auto n = std::make_unique<N>();
    n->c = &computes;
    n->has_pred = k > 0;
    n->pred = k > 0 ? k - 1 : 0;
    ex.add_node(k, static_cast<numa::Color>(k % 2), std::move(n));
  }
  ex.prepare();
  ex.run();
  EXPECT_EQ(computes.load(), 20);
  ex.reset();
  ex.run();
  EXPECT_EQ(computes.load(), 40);
}

TEST(StaticExecutorDeath, MissingPredecessorAborts) {
  api::RuntimeOptions opts;
  opts.workers = 1;
  opts.variant = api::Variant::kNabbit;
  api::Runtime rt(opts);
  auto exp = rt.static_graph();
  StaticExecutor& ex = *exp;
  struct N final : TaskGraphNode {
    void init(ExecContext&) override { add_predecessor(999); }
    void compute(ExecContext&) override {}
  };
  ex.add_node(0, 0, std::make_unique<N>());
  EXPECT_DEATH(ex.prepare(), "never added");
}

TEST(StaticExecutorDeath, DuplicateKeyAborts) {
  api::RuntimeOptions opts;
  opts.workers = 1;
  opts.variant = api::Variant::kNabbit;
  api::Runtime rt(opts);
  auto exp = rt.static_graph();
  exp->add_node(1, 0, std::make_unique<NopNode>());
  EXPECT_DEATH(exp->add_node(1, 0, std::make_unique<NopNode>()), "duplicate");
}

// -------------------------------------------------------------------- keys

TEST(Keys, PackUnpackRoundTrip) {
  Key k = key_pack(0xdeadbeef, 0x12345678);
  EXPECT_EQ(key_major(k), 0xdeadbeefu);
  EXPECT_EQ(key_minor(k), 0x12345678u);
  EXPECT_EQ(key_pack(0, 0), 0u);
}

}  // namespace
}  // namespace nabbitc::nabbit

namespace nabbitc::nabbit {
namespace {

// Regression: the created-predecessor path of the exploration step must
// register the parent's dependence even though the predecessor may stay
// pending long after its own init (one of *its* preds still executing
// elsewhere). A 2-D wavefront with a steep cost gradient reproduced the
// original bug within a few rounds; see executor.cpp's explore().
class GradientWavefrontNode final : public TaskGraphNode {
 public:
  void init(ExecContext&) override {
    const std::uint32_t bi = key_major(key()), bj = key_minor(key());
    if (bj > 0) add_predecessor(key_pack(bi, bj - 1));
    if (bi > 0) add_predecessor(key_pack(bi - 1, bj));
  }
  void compute(ExecContext& ctx) override {
    volatile long sink = 0;
    const long work = 2000L * (1 + key_major(key()) + key_minor(key()));
    for (long i = 0; i < work; ++i) sink = sink + i;
    for (Key p : predecessors()) {
      TaskGraphNode* pn = ctx.find(p);
      ASSERT_NE(pn, nullptr);
      ASSERT_TRUE(pn->computed());
    }
  }
};

class GradientWavefrontSpec final : public GraphSpec {
 public:
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<GradientWavefrontNode>();
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(key_major(k) / 2);
  }
};

TEST(DynamicExecutorRegression, CreatedPendingPredecessorIsRegistered) {
  for (std::uint64_t round = 0; round < 40; ++round) {
    api::RuntimeOptions opts;
    opts.workers = 4;
    opts.topology = numa::Topology(2, 2);
    opts.variant = api::Variant::kNabbitC;
    opts.seed = round;
    api::Runtime rt(opts);
    GradientWavefrontSpec spec;
    api::Execution e = rt.run(spec, key_pack(7, 7));
    ASSERT_EQ(e.nodes_computed(), 64u) << "round " << round;
  }
}

// ------------------------------------------------- non-blocking protocol
//
// No protocol step waits, so a node runs on whichever worker finishes its
// last join, published work reaches idle peers, and the C++ stack does not
// grow with the graph's depth.

class NonBlocking : public ::testing::TestWithParam<api::Variant> {
 protected:
  api::Runtime make_runtime() const {
    api::RuntimeOptions opts;
    opts.workers = 2;
    opts.variant = GetParam();
    return api::Runtime(opts);
  }
};

/// A side x side wavefront (preds: up and left) whose compute is a hook.
template <typename Hook>
class HookedGridSpec final : public GraphSpec {
 public:
  HookedGridSpec(std::uint32_t side, Hook hook) : side_(side), hook_(hook) {}
  Key sink() const { return key_pack(side_ - 1, side_ - 1); }
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(this);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(key_major(k) % 2);
  }
  std::size_t expected_nodes() const override {
    return std::size_t{side_} * side_;
  }

 private:
  struct Node final : TaskGraphNode {
    HookedGridSpec* spec;
    explicit Node(HookedGridSpec* s) : spec(s) {}
    void init(ExecContext&) override {
      const std::uint32_t i = key_major(key()), j = key_minor(key());
      if (i > 0) add_predecessor(key_pack(i - 1, j));
      if (j > 0) add_predecessor(key_pack(i, j - 1));
    }
    void compute(ExecContext&) override { spec->hook_(key()); }
  };

  std::uint32_t side_;
  Hook hook_;
};

/// Spins (yielding) until `done()` or a 10 s budget shared by the whole
/// test runs out; returns false once it has.
struct Rendezvous {
  std::chrono::steady_clock::time_point give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> timed_out{false};

  template <typename Done>
  bool await(Done done) {
    while (!done()) {
      if (timed_out.load() || std::chrono::steady_clock::now() > give_up) {
        timed_out.store(true);
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }
};

TEST_P(NonBlocking, AntiDiagonalPairsOverlapOnTwoWorkers) {
  // On a 4x4 wavefront, the two border cells of each anti-diagonal (d = 1..5)
  // form a pair, and each waits until its partner has started. One pair is
  // open at a time (each later pair's cells depend on the earlier pair's),
  // so two workers always suffice — if every ready node can reach the other
  // worker. A node whose release sat behind a blocking sync on the waiting
  // worker never started, and the pair timed out.
  auto rt = make_runtime();
  Rendezvous rv;
  for (int run = 0; run < 10 && !rv.timed_out.load(); ++run) {
    std::atomic<bool> started[16] = {};
    const auto partner = [](std::uint32_t i, std::uint32_t j) -> int {
      const std::uint32_t d = i + j;
      const std::uint32_t lo = d > 3 ? d - 3 : 0, hi = d < 3 ? d : 3;
      if (lo == hi) return -1;  // the corners
      if (i == lo) return static_cast<int>(hi * 4 + (d - hi));
      if (i == hi) return static_cast<int>(lo * 4 + (d - lo));
      return -1;  // inner cells
    };
    HookedGridSpec spec(4, [&](Key k) {
      const std::uint32_t i = key_major(k), j = key_minor(k);
      started[i * 4 + j].store(true);
      const int p = partner(i, j);
      if (p >= 0) rv.await([&] { return started[p].load(); });
    });
    api::Execution e = rt.run(spec, spec.sink());
    ASSERT_FALSE(rv.timed_out.load())
        << "run " << run << ": a pair never ran on both workers at once";
    EXPECT_EQ(e.nodes_computed(), 16u);
  }
}

TEST_P(NonBlocking, DeepChainCompletesOnDefaultStacks) {
  // 200,000 nodes in a line: exploration and notification both follow the
  // whole depth, which recursion would have to hold on a worker's stack.
  class ChainSpec final : public GraphSpec {
   public:
    explicit ChainSpec(Key n) : n_(n) {}
    TaskGraphNode* create(NodeArena& arena, Key) override {
      return arena.create<Node>();
    }
    std::size_t expected_nodes() const override { return n_; }

   private:
    struct Node final : TaskGraphNode {
      void init(ExecContext&) override {
        if (key() > 0) add_predecessor(key() - 1);
      }
      void compute(ExecContext&) override {}
    };
    Key n_;
  };
  constexpr Key kNodes = 200'000;
  auto rt = make_runtime();
  ChainSpec spec(kNodes);
  api::Execution e = rt.run(spec, kNodes - 1);
  EXPECT_EQ(e.status().state, api::ExecStatus::kCompleted);
  EXPECT_EQ(e.nodes_computed(), kNodes);
  // A chain link's successor continues inline, so the chain publishes no
  // frame: one frame per link would map ~11 MB of frame arena here.
  EXPECT_LE(rt.arena_bytes(), std::size_t{4} << 16);
}

TEST_P(NonBlocking, WideWavefrontCompletesOnDefaultStacks) {
  std::atomic<std::uint64_t> computes{0};
  HookedGridSpec spec(300, [&](Key) { computes.fetch_add(1); });
  auto rt = make_runtime();
  api::Execution e = rt.run(spec, spec.sink());
  EXPECT_EQ(e.status().state, api::ExecStatus::kCompleted);
  EXPECT_EQ(e.nodes_computed(), 300u * 300u);
  EXPECT_EQ(computes.load(), 300u * 300u);
}

TEST_P(NonBlocking, CancelAmidPublishedFramesRetiresEveryNode) {
  // Node (5, 5) of a 12x12 wavefront cancels its own execution while the
  // other worker runs whatever the wavefront published. Every created node
  // retires (computed or skipped), nothing after (5, 5) computes, and the
  // frame arenas stop growing once both workers have used them.
  constexpr std::uint32_t kSide = 12;
  auto rt = make_runtime();
  std::atomic<bool> armed{false};
  std::atomic<api::Execution*> target{nullptr};
  std::atomic<std::uint64_t> after{0};
  Rendezvous rv;
  HookedGridSpec spec(kSide, [&](Key k) {
    const std::uint32_t i = key_major(k), j = key_minor(k);
    if (i == 5 && j == 5) {
      if (armed.load() && rv.await([&] { return target.load() != nullptr; })) {
        target.load()->cancel();
      }
    } else if (i >= 5 && j >= 5) {
      after.fetch_add(1);
    }
  });
  const auto cancelled_run = [&] {
    target.store(nullptr);
    after.store(0);
    armed.store(true);
    api::Execution e = rt.submit(spec, spec.sink());
    target.store(&e);
    e.wait();
    ASSERT_FALSE(rv.timed_out.load());
    const api::Status st = e.status();
    EXPECT_EQ(st.state, api::ExecStatus::kCancelled);
    EXPECT_EQ(e.nodes_computed() + st.skipped_nodes, e.nodes_created());
    EXPECT_GE(e.nodes_computed(), 36u);  // (5, 5) and all its predecessors
    // Its descendants: skipped if discovered before the cancel, never
    // created otherwise — computed never.
    EXPECT_EQ(after.load(), 0u);
    EXPECT_FALSE(e.find(spec.sink())->computed());
  };
  // Ten runs first, so both workers have mapped the block their frames
  // recycle through. Every run puts its predecessor items, ready arrays and
  // frames in the arenas, so forty more cancelled runs that leaked them
  // would map new blocks.
  api::Execution full = rt.run(spec, spec.sink());
  ASSERT_EQ(full.nodes_computed(), kSide * kSide);
  for (int run = 0; run < 9; ++run) cancelled_run();
  rt.wait_idle();
  const std::size_t warm_bytes = rt.arena_bytes();
  rt.reset_counters();
  for (int run = 0; run < 40; ++run) cancelled_run();
  rt.wait_idle();
  EXPECT_GT(rt.counters().spawns, 0u) << "no frame was published";
  EXPECT_LE(rt.arena_bytes(), warm_bytes)
      << "cancelled runs leaked frame-arena blocks";
}

TEST_P(NonBlocking, BornExpiredDeadlineRetiresTheSinkAndNothingElse) {
  // Expired at adoption: discovery stops at the sink, which retires as a
  // skip; the runtime then runs the same graph in full, and the expired
  // submissions leave the frame arenas where that full run left them.
  std::atomic<std::uint64_t> computes{0};
  HookedGridSpec spec(12, [&](Key) { computes.fetch_add(1); });
  auto rt = make_runtime();
  api::Execution full = rt.run(spec, spec.sink());
  ASSERT_EQ(full.nodes_computed(), 144u);
  rt.wait_idle();
  const std::size_t warm_bytes = rt.arena_bytes();
  computes.store(0);
  for (int run = 0; run < 5; ++run) {
    api::SubmitOptions so;
    so.deadline_ns = 1;  // long past
    api::Execution e = rt.run(spec, spec.sink(), so);
    const api::Status st = e.status();
    EXPECT_EQ(st.state, api::ExecStatus::kDeadlineExceeded);
    EXPECT_EQ(e.nodes_created(), 1u);
    EXPECT_EQ(st.skipped_nodes, 1u);
    EXPECT_EQ(e.nodes_computed(), 0u);
  }
  EXPECT_EQ(computes.load(), 0u);
  rt.wait_idle();
  EXPECT_LE(rt.arena_bytes(), warm_bytes);
  api::Execution again = rt.run(spec, spec.sink());
  EXPECT_EQ(again.status().state, api::ExecStatus::kCompleted);
  EXPECT_EQ(computes.load(), 144u);
}

/// A sink (key 0) joining `preds` leaves (keys 1..preds). Each leaf mixes
/// its key into its own slot; the sink hashes the slots in predecessor
/// order, so the result checks every leaf and the join.
class WideJoinSpec final : public GraphSpec {
 public:
  explicit WideJoinSpec(std::uint32_t preds) : preds_(preds), vals_(preds + 1) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(this);
  }
  numa::Color color_of(Key k) const override {
    return static_cast<numa::Color>(k % 2);
  }
  std::size_t expected_nodes() const override { return preds_ + 1u; }
  std::uint64_t result() const { return vals_[0]; }

 private:
  struct Node final : TaskGraphNode {
    WideJoinSpec* spec;
    explicit Node(WideJoinSpec* s) : spec(s) {}
    void init(ExecContext&) override {
      if (key() != 0) return;
      for (Key k = 1; k <= spec->preds_; ++k) add_predecessor(k);
    }
    void compute(ExecContext&) override {
      if (key() != 0) {
        spec->vals_[key()] = splitmix64(key() * 0x9e3779b97f4a7c15ULL);
        return;
      }
      std::uint64_t h = 0;
      for (Key k = 1; k <= spec->preds_; ++k) h = splitmix64(h ^ spec->vals_[k]);
      spec->vals_[0] = h;
    }
  };

  std::uint32_t preds_;
  std::vector<std::uint64_t> vals_;
};

TEST_P(NonBlocking, WideJoinsBeyondOneArenaBlockComplete) {
  // A sink's predecessor items (16 B each) and ready array outgrow one
  // 64 KiB frame-arena block at ~4,000 predecessors; such requests get a
  // dedicated block that is recycled like the others. Twenty more runs
  // stay within the level reached after two, doubled for the worker that
  // may not have run the sink yet (plus the slack the plan arena tests
  // allow): not recycling would add >= 80 KB per run.
  for (const std::uint32_t preds : {5'000u, 20'000u}) {
    SCOPED_TRACE("preds=" + std::to_string(preds));
    WideJoinSpec serial_spec(preds);
    SerialExecutor serial(serial_spec);
    serial.run(0);
    ASSERT_EQ(serial.nodes_computed(), preds + 1u);

    auto rt = make_runtime();
    const auto run_once = [&] {
      WideJoinSpec spec(preds);
      api::Execution e = rt.run(spec, 0);
      EXPECT_EQ(e.status().state, api::ExecStatus::kCompleted);
      EXPECT_EQ(e.nodes_computed(), preds + 1u);
      EXPECT_EQ(spec.result(), serial_spec.result());
    };
    run_once();
    run_once();
    const std::size_t warm_bytes = rt.arena_bytes();
    for (int i = 0; i < 20; ++i) run_once();
    EXPECT_LE(rt.arena_bytes(), warm_bytes * 2 + (std::size_t{256} << 10))
        << "warm=" << warm_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(BothVariants, NonBlocking,
                         ::testing::Values(api::Variant::kNabbit,
                                           api::Variant::kNabbitC),
                         [](const auto& info) {
                           return std::string(api::variant_name(info.param));
                         });

}  // namespace
}  // namespace nabbitc::nabbit
