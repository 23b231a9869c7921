// Tests of the benchmark's own logic: the seeded stream, the counts, the
// ledger arithmetic and the percentile convention.
#include <gtest/gtest.h>

#include <vector>

#include "api/runtime.h"
#include "bench.h"
#include "net/remote_graph.h"
#include "plan/plan.h"
#include "stream.h"
#include "support/stats.h"

namespace perfbench {
namespace {

TEST(Stream, SameSeedSameRequests) {
  RequestStream a(7, 2), b(7, 2);
  for (int i = 0; i < 300; ++i) {
    const Request x = a.next(), y = b.next();
    EXPECT_EQ(x.shape, y.shape);
    EXPECT_EQ(x.payload, y.payload);
  }
}

TEST(Stream, SeedAndCallerChangeTheRequests) {
  RequestStream base(7, 0), other_seed(8, 0), other_caller(7, 1);
  int same_seed_payloads = 0, same_caller_payloads = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t p = base.next().payload;
    same_seed_payloads += other_seed.next().payload == p;
    same_caller_payloads += other_caller.next().payload == p;
  }
  EXPECT_EQ(same_seed_payloads, 0);
  EXPECT_EQ(same_caller_payloads, 0);
}

TEST(Stream, ShapesComeInEqualThirds) {
  RequestStream s(11, 3);
  std::array<int, kShapes> n{};
  for (int block = 0; block < 200; ++block) {
    std::array<int, kShapes> in_block{};
    for (std::uint32_t i = 0; i < kShapes; ++i) ++in_block[s.next().shape];
    for (std::uint32_t k = 0; k < kShapes; ++k) {
      EXPECT_EQ(in_block[k], 1);
      n[k] += in_block[k];
    }
  }
  EXPECT_EQ(n[kTiny], 200);
  EXPECT_EQ(n[kWave], 200);
  EXPECT_EQ(n[kChain], 200);
}

TEST(Stream, GraphsFollowTheSeed) {
  const GraphSet a = make_graphs(5), b = make_graphs(5), c = make_graphs(6);
  for (std::uint32_t i = 0; i < kShapes; ++i) {
    EXPECT_EQ(nabbitc::net::wire_graph_hash(a.graphs[i]),
              nabbitc::net::wire_graph_hash(b.graphs[i]));
    EXPECT_EQ(a.expected_sink[i], b.expected_sink[i]);
    EXPECT_NE(a.expected_sink[i], c.expected_sink[i]);
  }
  EXPECT_EQ(a.graphs[kTiny].nodes.size(), kTinyNodes);
  EXPECT_EQ(a.graphs[kWave].nodes.size(), kWaveSide * kWaveSide);
  ASSERT_EQ(a.graphs[kChain].nodes.size(), kChains * kChainLen + 1);
  EXPECT_EQ(a.graphs[kChain].nodes.back().preds.size(), kChains);
}

// The shapes exercise the plan paths the workload claims they do.
TEST(Stream, ShapesTakeTheirPlanPaths) {
  nabbitc::api::RuntimeOptions ro;
  ro.workers = 2;
  nabbitc::api::Runtime rt(ro);
  const GraphSet gs = make_graphs(1);
  std::array<std::unique_ptr<nabbitc::net::RemoteGraphSpec>, kShapes> specs;
  std::array<std::unique_ptr<nabbitc::plan::GraphPlan>, kShapes> plans;
  for (std::uint32_t i = 0; i < kShapes; ++i) {
    specs[i] = std::make_unique<nabbitc::net::RemoteGraphSpec>(gs.graphs[i], 2);
    plans[i] = rt.compile(*specs[i], gs.graphs[i].sink());
  }
  EXPECT_TRUE(plans[kTiny]->serial_lowered());
  EXPECT_FALSE(plans[kWave]->serial_lowered());
  EXPECT_EQ(plans[kChain]->num_fused_nodes(), kChains + 1);
}

TEST(Percentile, NearestRankAsSupportStats) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);  // interpolation would give 99.01
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(v.front(), 100.0);  // the caller's samples stay unsorted
  std::vector<double> w = v;
  EXPECT_EQ(percentile(v, 0.95), nabbitc::nearest_rank_percentile(w, 0.95));
}

TEST(Percentile, SummaryPerClassAndGeomean) {
  std::vector<LatencySample> xs;
  for (int i = 1; i <= 9; ++i) xs.push_back({0, 1.0f * i});    // p50 5
  for (int i = 1; i <= 9; ++i) xs.push_back({2, 100.0f * i});  // p50 500
  const LatencySummary s = summarize(xs, 3);
  EXPECT_EQ(s.p50_by_class[0], 5.0);
  EXPECT_EQ(s.p50_by_class[1], 0.0);  // empty class
  EXPECT_EQ(s.count_by_class[1], 0u);
  EXPECT_EQ(s.p50_by_class[2], 500.0);
  EXPECT_DOUBLE_EQ(s.mean_by_class[2], 500.0);
  EXPECT_DOUBLE_EQ(s.gmean_p50, 50.0);  // empty classes do not count
  EXPECT_EQ(s.p95, 900.0);              // rank 18 of 18
}

TEST(EndToEnd, ThroughputIsTheMedianSecond) {
  Phase p;
  p.seconds = 4.2;  // four whole seconds; the partial fifth is left out
  constexpr std::uint64_t kS = 1'000'000'000;
  // A second's rate is n / (its last completion - the previous second's):
  // 10/s, 1000/s, 12/s, then a partial second at 500/s.
  p.per_second = {{5, kS / 2}, {10, kS + kS / 2}, {1000, 2 * kS + kS / 2},
                  {6, 3 * kS}, {100, 3 * kS + kS / 5}};
  Report r;
  add_end_to_end(r, p, {"only"}, 0.5);
  ASSERT_EQ(r.metrics.size(), 4u);
  EXPECT_EQ(r.metrics[0].name, "graphs_per_s");
  EXPECT_DOUBLE_EQ(r.metrics[0].value, 12.0);
  EXPECT_EQ(r.metrics[2].name, "setup_s");
  EXPECT_EQ(r.metrics[2].value, 0.5);
}

TEST(EndToEnd, SetupIsTheMedianRoundsBest) {
  // Rounds of three: best 2, 1, 7 -> median 2. A slow round (7) and the
  // slow set-ups within a round (9, 30) do not move it.
  const std::vector<double> secs = {3, 2, 9, 1, 30, 4, 7, 8, 7};
  EXPECT_EQ(setup_seconds(secs, 3), 2.0);
  EXPECT_EQ(setup_seconds(secs, 1), 7.0);  // rounds of one: the plain median
  EXPECT_EQ(setup_seconds({3, 2, 9, 1}, 3), 2.0);  // a partial round is left out
}

TEST(EndToEnd, SecondsMergeAcrossCallers) {
  SecondBin a, b;
  a.add(5);
  a.add(9);
  b.add(2);
  b.add(7);
  b.add(8);
  a.merge(b);
  EXPECT_EQ(a.n, 5u);
  EXPECT_EQ(a.last_ns, 9u);
  a.merge(SecondBin{});
  EXPECT_EQ(a.n, 5u);
}

TEST(EndToEnd, ReservoirKeepsAFixedUniformSample) {
  CallerOut out(2);
  const std::uint64_t n = 4 * CallerOut::kKeep;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.record(i % 2 == 0 ? 0 : 1, 0, i < n / 2 ? 1000 : 3000);  // 1us, then 3us
  }
  EXPECT_EQ(out.completed, n);
  ASSERT_EQ(out.latencies.size(), CallerOut::kKeep);
  std::uint64_t late = 0, cls1 = 0;
  for (const LatencySample& x : out.latencies) {
    late += x.us > 2.0f;
    cls1 += x.cls;
  }
  // Half of all completions came late and half are class 1: so do about
  // half of the kept samples.
  EXPECT_NEAR(static_cast<double>(late) / CallerOut::kKeep, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(cls1) / CallerOut::kKeep, 0.5, 0.02);
}

TEST(Ledger, ResidualIsWhatStagesLeave) {
  Ledger lg;
  lg.latency_us = 100;
  lg.stages = {{"a", 30}, {"b", 50}};
  EXPECT_DOUBLE_EQ(lg.covered_us(), 80);
  EXPECT_DOUBLE_EQ(lg.residual_us(), 20);
  EXPECT_DOUBLE_EQ(lg.residual_share(), 0.2);

  lg.stages = {{"a", 130}};  // overlapping stages show as a negative residual
  EXPECT_DOUBLE_EQ(lg.residual_share(), -0.3);

  lg.stages.clear();
  EXPECT_DOUBLE_EQ(lg.residual_share(), 1.0);
  lg.latency_us = 0;
  EXPECT_DOUBLE_EQ(lg.residual_share(), 0.0);
}

TEST(Ledger, PhaseStageMeans) {
  Phase p;
  p.stage_ns = {{2000, 4000, 0, 0}, {0, 0, 0, 0}};
  p.staged = {2, 0};
  EXPECT_DOUBLE_EQ(p.stage_mean_us(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.stage_mean_us(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(p.stage_mean_us(1, 0), 0.0);
}

TEST(Counts, EveryAttemptSucceedsOrFails) {
  const ProbeCounts ok = probe_serve_tcp(3, 0.3, 16);
  EXPECT_GT(ok.succeeded, 0u);
  EXPECT_EQ(ok.failed, 0u);
  EXPECT_EQ(ok.wrong, 0u);
  EXPECT_EQ(ok.attempted, ok.succeeded + ok.failed);
}

TEST(Counts, BusyIsAFailedAttempt) {
  // A per-session cap of 0 refuses every SUBMIT.
  const ProbeCounts busy = probe_serve_tcp(3, 0.2, 0);
  EXPECT_GT(busy.attempted, 0u);
  EXPECT_EQ(busy.succeeded, 0u);
  EXPECT_EQ(busy.busy, busy.attempted);
  EXPECT_EQ(busy.attempted, busy.succeeded + busy.failed);
}

}  // namespace
}  // namespace perfbench
