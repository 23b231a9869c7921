// Tests for the NabbitC color layer: coloring modes, colored spawning
// (morphing continuations), colored executors, and locality behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "api/nabbitc.h"
#include "nabbitc/coloring.h"
#include "nabbitc/spawn_colors.h"
#include "support/timing.h"

namespace nabbitc::nabbit {
namespace {

// ---------------------------------------------------------------- coloring

TEST(Coloring, GoodIsIdentity) {
  for (numa::Color c = 0; c < 8; ++c) {
    EXPECT_EQ(apply_coloring(c, ColoringMode::kGood, 8), c);
  }
}

TEST(Coloring, BadIsValidButDifferent) {
  const std::uint32_t workers = 8;
  for (numa::Color c = 0; c < 8; ++c) {
    numa::Color bad = apply_coloring(c, ColoringMode::kBad, workers);
    EXPECT_GE(bad, 0);
    EXPECT_LT(bad, static_cast<numa::Color>(workers));
    EXPECT_NE(bad, c);
  }
}

TEST(Coloring, BadLandsInDifferentDomain) {
  // With >= 2 domains, the half-machine rotation must cross domains.
  numa::Topology topo(4, 2);  // 8 workers, 4 domains
  for (numa::Color c = 0; c < 8; ++c) {
    numa::Color bad = apply_coloring(c, ColoringMode::kBad, 8);
    EXPECT_NE(topo.domain_of_color(bad), topo.domain_of_color(c));
  }
}

TEST(Coloring, BadIsPermutation) {
  std::vector<int> seen(8, 0);
  for (numa::Color c = 0; c < 8; ++c) {
    ++seen[static_cast<std::size_t>(apply_coloring(c, ColoringMode::kBad, 8))];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Coloring, InvalidIsNoWorkersColor) {
  EXPECT_EQ(apply_coloring(3, ColoringMode::kInvalid, 8), numa::kInvalidColor);
  EXPECT_EQ(apply_coloring(0, ColoringMode::kInvalid, 1), numa::kInvalidColor);
}

TEST(Coloring, SingleWorkerBadIsIdentity) {
  EXPECT_EQ(apply_coloring(0, ColoringMode::kBad, 1), 0);
}

TEST(Coloring, Names) {
  EXPECT_STREQ(coloring_name(ColoringMode::kGood), "good");
  EXPECT_STREQ(coloring_name(ColoringMode::kBad), "bad");
  EXPECT_STREQ(coloring_name(ColoringMode::kInvalid), "invalid");
}

// ------------------------------------------------------------ spawn_colored

struct ColoredItem {
  int id;
  numa::Color color;
};

TEST(SpawnColored, ExecutesEveryItemOnce) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);

  std::vector<std::atomic<int>> hits(64);
  std::vector<ColoredItem> items;
  for (int i = 0; i < 64; ++i) items.push_back({i, static_cast<numa::Color>(i % 4)});

  struct Leaf {
    std::vector<std::atomic<int>>* hits;
    void operator()(rt::Worker&, const ColoredItem& it) const {
      (*hits)[static_cast<std::size_t>(it.id)].fetch_add(1);
    }
  };
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, items.data(), items.size(),
        [](const ColoredItem& it) { return it.color; }, Leaf{&hits});
    g.wait(w);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SpawnColored, SingleWorkerExecutesOwnColorFirst) {
  // The morphing order on worker 0 (color 0) must run all color-0 items
  // before any other color (single worker => no steals disturb the order).
  api::RuntimeOptions opts;
  opts.workers = 1;
  api::Runtime rt(opts);

  std::mutex mu;
  std::vector<numa::Color> order;
  std::vector<ColoredItem> items;
  // Colors deliberately interleaved.
  for (int i = 0; i < 24; ++i) items.push_back({i, static_cast<numa::Color>(i % 3)});

  struct Leaf {
    std::mutex* mu;
    std::vector<numa::Color>* order;
    void operator()(rt::Worker&, const ColoredItem& it) const {
      std::lock_guard<std::mutex> lk(*mu);
      order->push_back(it.color);
    }
  };
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, items.data(), items.size(),
        [](const ColoredItem& it) { return it.color; }, Leaf{&mu, &order});
    g.wait(w);
  });
  ASSERT_EQ(order.size(), 24u);
  // The first 8 executed items must all be color 0 (the worker's color).
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 0);
}

TEST(SpawnColored, EmptyAndSingleton) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  api::Runtime rt(opts);
  std::atomic<int> n{0};
  struct Leaf {
    std::atomic<int>* n;
    void operator()(rt::Worker&, const ColoredItem&) const { n->fetch_add(1); }
  };
  std::vector<ColoredItem> one{{7, 1}};
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, one.data(), 0, [](const ColoredItem& it) { return it.color; },
        Leaf{&n});
    spawn_colored(
        w, g, one.data(), 1, [](const ColoredItem& it) { return it.color; },
        Leaf{&n});
    g.wait(w);
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(SpawnColored, AllInvalidColorsStillExecute) {
  api::RuntimeOptions opts;
  opts.workers = 3;
  api::Runtime rt(opts);
  std::atomic<int> n{0};
  std::vector<ColoredItem> items;
  for (int i = 0; i < 32; ++i) items.push_back({i, numa::kInvalidColor});
  struct Leaf {
    std::atomic<int>* n;
    void operator()(rt::Worker&, const ColoredItem&) const { n->fetch_add(1); }
  };
  rt.run_parallel([&](rt::Worker& w) {
    rt::TaskGroup g;
    spawn_colored(
        w, g, items.data(), items.size(),
        [](const ColoredItem& it) { return it.color; }, Leaf{&n});
    g.wait(w);
  });
  EXPECT_EQ(n.load(), 32);
}

// ------------------------------------------------------- colored executors

/// Wide two-level graph: sink depends on `width` independent nodes spread
/// over all colors; records which worker executed each node (lock-free, so
/// recording does not serialize the nodes).
struct WideGraphState {
  WideGraphState(std::uint32_t w, std::uint32_t c)
      : width(w), colors(c), executed_by(w + 1) {}
  std::uint32_t width;
  std::uint32_t colors;
  /// Executing worker's id + 1 per key; 0 = not executed.
  std::vector<std::atomic<std::uint32_t>> executed_by;

  std::size_t executed() const {
    std::size_t n = 0;
    for (const auto& e : executed_by) n += e.load() != 0 ? 1 : 0;
    return n;
  }
};

class WideNode final : public TaskGraphNode {
 public:
  explicit WideNode(WideGraphState* st) : st_(st) {}
  void init(ExecContext&) override {
    if (key() == 0) {  // sink
      for (std::uint32_t i = 1; i <= st_->width; ++i) add_predecessor(i);
    }
  }
  void compute(ExecContext& ctx) override {
    st_->executed_by[key()].store(ctx.worker().id() + 1, std::memory_order_relaxed);
  }

 private:
  WideGraphState* st_;
};

class WideSpec final : public GraphSpec {
 public:
  explicit WideSpec(WideGraphState* st, ColoringMode mode)
      : st_(st), mode_(mode) {}
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<WideNode>(st_);
  }
  numa::Color color_of(Key k) const override {
    return apply_coloring(data_color_of(k), mode_, st_->colors);
  }
  numa::Color data_color_of(Key k) const override {
    return k == 0 ? 0 : static_cast<numa::Color>((k - 1) % st_->colors);
  }

 private:
  WideGraphState* st_;
  ColoringMode mode_;
};

class ColoredExecTest : public ::testing::TestWithParam<ColoringMode> {};

TEST_P(ColoredExecTest, AllColoringsComplete) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  auto tuning = rt::StealPolicy::nabbitc();
  tuning.first_steal_max_attempts = 256;  // keep invalid-coloring runs fast
  opts.steal_tuning = tuning;
  api::Runtime rt(opts);

  WideGraphState st(200, 4);
  WideSpec spec(&st, GetParam());
  rt.run(spec, 0);
  EXPECT_EQ(st.executed(), 201u);
}

INSTANTIATE_TEST_SUITE_P(Colorings, ColoredExecTest,
                         ::testing::Values(ColoringMode::kGood, ColoringMode::kBad,
                                           ColoringMode::kInvalid));

TEST(ColoredExecutor, GoodColoringKeepsLocalityOnSingleWorkerPerColor) {
  // With 1 worker there is no stealing: every node executes on worker 0 and
  // the locality counters must classify nodes by color correctly.
  api::RuntimeOptions opts;
  opts.workers = 1;
  opts.topology = numa::Topology(1, 1);
  api::Runtime rt(opts);
  WideGraphState st(50, 1);
  WideSpec spec(&st, ColoringMode::kGood);
  rt.run(spec, 0);
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 51u);
  EXPECT_EQ(agg.locality.remote_nodes, 0u);  // single domain: nothing remote
}

TEST(ColoredExecutor, InvalidColoringDisablesColoredSteals) {
  // Invalid hints => empty frame masks => zero successful colored steals;
  // data-color-based locality accounting keeps counting real placement.
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.topology = numa::Topology(2, 1);
  auto tuning = rt::StealPolicy::nabbitc();
  tuning.first_steal_max_attempts = 64;
  opts.steal_tuning = tuning;
  api::Runtime rt(opts);
  WideGraphState st(40, 2);
  WideSpec spec(&st, ColoringMode::kInvalid);
  rt.run(spec, 0);
  auto agg = rt.counters();
  EXPECT_EQ(agg.locality.nodes, 41u);
  EXPECT_EQ(agg.steals_colored, 0u);
}

TEST(ColoredStaticExecutor, RunsColoredGraph) {
  api::RuntimeOptions opts;
  opts.workers = 4;
  opts.topology = numa::Topology(2, 2);
  api::Runtime rt(opts);  // kNabbitC default -> colored static executor
  auto exp = rt.static_graph();
  StaticExecutor& ex = *exp;
  std::atomic<int> computes{0};
  struct N final : TaskGraphNode {
    std::atomic<int>* c;
    std::vector<Key> ps;
    void init(ExecContext&) override {
      for (Key p : ps) add_predecessor(p);
    }
    void compute(ExecContext&) override { c->fetch_add(1); }
  };
  // Two-level fan: 0..15 roots, 16 depends on all.
  for (Key k = 0; k < 16; ++k) {
    auto n = std::make_unique<N>();
    n->c = &computes;
    ex.add_node(k, static_cast<numa::Color>(k % 4), std::move(n));
  }
  auto sinkn = std::make_unique<N>();
  sinkn->c = &computes;
  for (Key k = 0; k < 16; ++k) sinkn->ps.push_back(k);
  ex.add_node(16, 0, std::move(sinkn));
  ex.prepare();
  ex.run();
  EXPECT_EQ(computes.load(), 17);
}

/// Fork-join levels: join J_l (key l * stride) depends on one leaf per
/// color (keys l * stride + 1 .. colors), each depending on J_{l-1}, so every
/// level hands each worker's color back to it through a steal. Leaves spin
/// `work_ns`, long enough that idle workers are looking when a level forks.
class LevelSpec final : public GraphSpec {
 public:
  LevelSpec(std::uint32_t colors, std::uint64_t work_ns)
      : colors_(colors), work_ns_(work_ns) {}
  Key join_of(std::uint32_t level) const { return Key{level} * stride(); }
  TaskGraphNode* create(NodeArena& arena, Key) override {
    return arena.create<Node>(this);
  }
  numa::Color color_of(Key k) const override {
    const Key i = k % stride();
    return i == 0 ? 0 : static_cast<numa::Color>(i - 1);
  }

 private:
  struct Node final : TaskGraphNode {
    const LevelSpec* spec;
    explicit Node(const LevelSpec* s) : spec(s) {}
    void init(ExecContext&) override {
      const Key level = key() / spec->stride();
      if (level == 0) return;
      if (key() % spec->stride() != 0) {
        add_predecessor((level - 1) * spec->stride());
        return;
      }
      for (Key i = 1; i < spec->stride(); ++i) add_predecessor(key() + i);
    }
    void compute(ExecContext&) override {
      if (key() % spec->stride() == 0) return;
      const std::uint64_t t0 = now_ns();
      while (now_ns() - t0 < spec->work_ns_) {
      }
    }
  };
  Key stride() const { return Key{colors_} + 1; }

  std::uint32_t colors_;
  std::uint64_t work_ns_;
};

TEST(ColoredExecutor, StealsAreColoredUnderGoodColoring) {
  // With abundant same-color work and the NabbitC policy, the successful
  // steals that do happen should be predominantly colored. Each of the 200
  // levels forks one 50 us leaf per color from whichever worker finished the
  // previous join, so every level hands the thief a frame of its own color
  // (median 408 colored vs 12 random steals on a 4-vCPU host). Two workers:
  // with four on Topology(2, 2), the thieves of other colors are idle at
  // every fork as well, so ~17% of steals were random on an idle 4-vCPU
  // host and 30-35% with three or four copies of the run sharing it, where
  // 0.5-1% of runs failed (ROADMAP keeps that case open).
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.topology = numa::Topology(2, 1);
  api::Runtime rt(opts);
  LevelSpec spec(2, 50'000);
  rt.run(spec, spec.join_of(200));
  auto agg = rt.counters();
  // On a 1-core CI host steals may be rare; when they happen under good
  // coloring, colored steals must dominate random ones.
  if (agg.steals_total() > 10) {
    EXPECT_GE(agg.steals_colored, agg.steals_random);
  }
}

}  // namespace
}  // namespace nabbitc::nabbit
