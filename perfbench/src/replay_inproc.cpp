// replay-inproc: the serve-tcp request stream, graphs, callers and workers,
// submitted straight to api::Runtime::submit(plan). The net layer is not on
// this path at all, so a net change should leave these numbers flat while
// plan/rt/api changes show here undiluted.
//
// Four caller threads run a closed loop, one request in flight each:
// submit, wait, verify the sink value through Execution::find, repeat.
#include <cstdio>
#include <memory>

#include "api/runtime.h"
#include "bench.h"
#include "net/remote_graph.h"
#include "plan/plan.h"
#include "stream.h"

namespace perfbench {

namespace {

using namespace nabbitc;

constexpr std::uint32_t kCallers = 4;
constexpr std::uint32_t kWorkers = 2;
/// Pre-built instances per plan, as net::ServerOptions::reserve_instances.
constexpr std::size_t kReserve = 4;
constexpr int kSetupRounds = 5;
constexpr int kSetupsPerRound = 20;
constexpr double kWarmupS = 0.5;

// Stages of one traced request (CallerOut::stage_ns indices). queue, exec
// and wake are disjoint; submit_call overlaps them (the call returns after
// the root was handed over, or after the whole inline replay). kLatency is
// the whole request, for the ledger.
enum : std::size_t { kQueue = 0, kExec = 1, kWake = 2, kSubmitCall = 3, kLatency = 4 };
enum : std::uint16_t { kSpanRequest, kSpanSubmit, kSpanQueue, kSpanExec, kSpanWake };
const std::vector<const char*> kSpanNames = {"request", "api.submit", "rt.queue",
                                             "plan.exec", "api.wake"};

/// Everything set-up builds. Declaration order is destruction order in
/// reverse: plans die before their specs, specs before the runtime.
struct Setup {
  std::unique_ptr<api::Runtime> rt;
  std::array<std::unique_ptr<net::RemoteGraphSpec>, kShapes> specs;
  std::array<std::unique_ptr<plan::GraphPlan>, kShapes> plans;
  std::array<double, kShapes> compile_us{};
};

std::unique_ptr<Setup> set_up(const GraphSet& gs, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  api::RuntimeOptions ro;
  ro.workers = kWorkers;
  ro.variant = api::Variant::kNabbitC;
  ro.seed = seed;
  s->rt = std::make_unique<api::Runtime>(ro);
  for (std::uint32_t i = 0; i < kShapes; ++i) {
    s->specs[i] = std::make_unique<net::RemoteGraphSpec>(gs.graphs[i],
                                                         s->rt->workers());
    const std::uint64_t t0 = now();
    s->plans[i] = s->rt->compile(*s->specs[i], gs.graphs[i].sink(), kReserve);
    s->compile_us[i] = static_cast<double>(now() - t0) / 1e3;
  }
  return s;
}

/// One caller's closed loop. `inline_done` counts handles already done()
/// when submit returned (serial-lowered plans run on the caller).
void caller_loop(Setup& s, const GraphSet& gs, RequestStream& stream,
                 CallerOut& out, std::uint64_t& inline_done, bool traced,
                 std::uint32_t caller, const std::atomic<bool>& stop) {
  std::uint64_t seq = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const Request rq = stream.next();
    const plan::GraphPlan& plan = *s.plans[rq.shape];
    ++out.attempted;
    const std::uint64_t t0 = now();
    api::Execution e = s.rt->submit(plan);
    const std::uint64_t t_ret = now();
    if (e.done()) ++inline_done;
    e.wait();
    const std::uint64_t t_wake = now();
    if (e.status().state != api::ExecStatus::kCompleted) {
      ++out.failed;
      continue;
    }
    const auto* sink = static_cast<const net::ServeNode*>(e.find(plan.sink()));
    if (sink == nullptr || sink->value != gs.expected_sink[rq.shape]) {
      ++out.failed;
      ++out.wrong;
      continue;
    }
    out.record(rq.shape, t0, t_wake);
    if (!traced) continue;

    const std::uint64_t ts = e.submit_time_ns();
    const std::uint64_t td = e.first_dispatch_time_ns();
    const std::uint64_t tc = e.complete_time_ns();
    const std::uint64_t t_run = td != 0 ? td : ts;  // inline: never queued
    auto& sum = out.stage_ns[rq.shape];
    sum[kQueue] += static_cast<double>(t_run - ts);
    sum[kExec] += static_cast<double>(tc - t_run);
    sum[kWake] += static_cast<double>(t_wake - tc);
    sum[kSubmitCall] += static_cast<double>(t_ret - t0);
    sum[kLatency] += static_cast<double>(t_wake - t0);
    ++out.staged[rq.shape];

    const std::uint64_t id = (static_cast<std::uint64_t>(caller) << 48) | seq++;
    const std::uint32_t root = out.spans.add(kSpanRequest, id, t0, t_wake);
    out.spans.add(kSpanSubmit, id, t0, t_ret, root);
    if (td != 0) out.spans.add(kSpanQueue, id, ts, td, root);
    out.spans.add(kSpanExec, id, t_run, tc, root);
    out.spans.add(kSpanWake, id, tc, t_wake, root);
  }
}

}  // namespace

Report run_replay_inproc(const RunConfig& cfg) {
  Report r;
  const GraphSet gs = make_graphs(cfg.seed);

  std::vector<double> setup_s;
  std::array<std::vector<double>, kShapes> compile_us;
  const std::unique_ptr<Setup> s = set_up_repeatedly(
      kSetupRounds * kSetupsPerRound, setup_s, [&] { return set_up(gs, cfg.seed); },
      [&](const Setup& x) {
        for (std::uint32_t i = 0; i < kShapes; ++i) compile_us[i].push_back(x.compile_us[i]);
      });

  std::array<std::uint64_t, kCallers> inline_done{};
  ClosedLoop loop(kCallers, cfg.seed,
                  [&](std::uint32_t c, RequestStream& stream, CallerOut& out, bool traced,
                      const std::atomic<bool>& stop) {
                    caller_loop(*s, gs, stream, out, inline_done[c], traced, c, stop);
                  });
  r.wrong += loop.run(kWarmupS, false).wrong;  // verified, but neither timed nor counted
  if (!cfg.trace) {
    const Phase p = loop.run(cfg.seconds, false);
    add_counts(r, p);
    add_end_to_end(r, p, {kShapeNames.begin(), kShapeNames.end()},
                   setup_seconds(setup_s, kSetupsPerRound));
    return r;
  }

  // Traced run: an untraced half (per-shape medians, overhead base), then a
  // traced half for the stage split and the scheduler counters.
  const Phase base = loop.run(cfg.seconds / 2, false);
  s->rt->reset_counters();
  inline_done.fill(0);
  const Phase tr = loop.run(cfg.seconds / 2, true);
  const rt::WorkerCounters wc = s->rt->counters();
  add_counts(r, base);
  add_counts(r, tr);

  const LatencySummary bs = summarize(base.latencies, kShapes);
  r.add("latency_p95_us", bs.p95, "us");
  std::uint64_t inlined = 0;
  for (const std::uint64_t n : inline_done) inlined += n;
  double queue_ns = 0;
  std::uint64_t staged = 0;
  for (std::uint32_t i = 0; i < kShapes; ++i) {
    const std::string sh = kShapeNames[i];
    r.add("latency_p50_us." + sh, bs.p50_by_class[i], "us");
    r.add("api.submit_us." + sh, tr.stage_mean_us(i, kSubmitCall), "us");
    r.add("rt.queue_wait_us." + sh, tr.stage_mean_us(i, kQueue), "us");
    r.add("plan.exec_us." + sh, tr.stage_mean_us(i, kExec), "us");
    r.add("api.wake_us." + sh, tr.stage_mean_us(i, kWake), "us");
    r.add("plan.residency_us." + sh,
          tr.stage_mean_us(i, kQueue) + tr.stage_mean_us(i, kExec), "us");
    r.add("plan.units." + sh, s->plans[i]->num_fused_nodes(), "count");
    r.add("plan.compile_us." + sh, median(compile_us[i]), "us");
    Ledger lg;
    lg.latency_us = tr.stage_mean_us(i, kLatency);
    lg.stages = {{"rt.queue", tr.stage_mean_us(i, kQueue)},
                 {"plan.exec", tr.stage_mean_us(i, kExec)},
                 {"api.wake", tr.stage_mean_us(i, kWake)}};
    r.add("ledger.residual_share." + sh, lg.residual_share(), "share");
    std::fprintf(stderr, "[ledger] %s\n", lg.format(sh).c_str());
    queue_ns += tr.stage_ns[i][kQueue];
    staged += tr.staged[i];
  }
  r.add("rt.queue_wait_us", ratio(queue_ns / 1e3, static_cast<double>(staged)), "us");
  r.add("plan.inline_share",
        ratio(static_cast<double>(inlined), static_cast<double>(tr.attempted)), "share");
  r.add("rt.arena_kb", static_cast<double>(s->rt->arena_bytes()) / 1024.0, "KiB");
  add_closed_loop_layers(r, "replay-inproc", base, tr, wc);

  write_spans(cfg.trace_out, loop.span_logs(), kSpanNames);
  return r;
}

}  // namespace perfbench
