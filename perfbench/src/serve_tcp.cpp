// serve-tcp: an in-process net::Server (2 runtime workers) on loopback TCP,
// driven by four net::Client connections in a closed loop with one request
// in flight each: submit, wait_result, verify, repeat. That is how every
// in-repo caller uses the service (each waits for its RESULT, and Client
// has no wait-any call); a deeper window would time the client's FIFO reap
// order instead of the system.
//
// The benchmark sets no socket option and uses the server exactly as an
// embedder would, so whatever the transport costs today is what it records.
#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "plan/plan.h"
#include "stream.h"

namespace perfbench {

namespace {

using namespace nabbitc;

constexpr std::uint32_t kCallers = 4;
constexpr std::uint32_t kWorkers = 2;
constexpr int kSetupRounds = 5;
constexpr int kSetupsPerRound = 12;
constexpr double kWarmupS = 1.0;
constexpr int kResultTimeoutMs = 10'000;

// Stages of one traced request (CallerOut::stage_ns indices).
enum : std::size_t { kSubmitRtt = 0, kResultGap = 1 };
enum : std::uint16_t { kSpanRequest, kSpanSubmit, kSpanResult };
const std::vector<const char*> kSpanNames = {"request", "net.submit",
                                             "net.wait_result"};

/// Declaration order matters: clients close before the server stops.
struct Setup {
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::array<std::uint64_t, kShapes> handles{};
  std::array<double, kShapes> register_ms{};  // first REGISTER (compiles)
};

net::ServerOptions server_options(std::uint64_t seed) {
  net::ServerOptions so;
  so.runtime.workers = kWorkers;
  so.runtime.variant = api::Variant::kNabbitC;
  so.runtime.seed = seed;
  so.tcp = true;
  so.tcp_port = 0;
  return so;
}

std::unique_ptr<Setup> set_up(const GraphSet& gs, net::ServerOptions so,
                              std::string* err) {
  auto s = std::make_unique<Setup>();
  s->server = std::make_unique<net::Server>(std::move(so));
  if (!s->server->start(err)) return nullptr;
  for (std::uint32_t c = 0; c < kCallers; ++c) {
    auto client = std::make_unique<net::Client>();
    if (!client->connect_tcp(s->server->tcp_port())) {
      *err = "connect: " + client->last_error();
      return nullptr;
    }
    for (std::uint32_t i = 0; i < kShapes; ++i) {
      const std::uint64_t t0 = now();
      const auto reg = client->register_graph(gs.graphs[i]);
      if (!reg) {
        *err = "register: " + client->last_error();
        return nullptr;
      }
      if (c == 0) s->register_ms[i] = static_cast<double>(now() - t0) / 1e6;
      s->handles[i] = reg->handle;
    }
    s->clients.push_back(std::move(client));
  }
  return s;
}

void caller_loop(net::Client& c, const Setup& s, const GraphSet& gs,
                 RequestStream& stream, CallerOut& out, bool traced,
                 std::uint32_t caller, const std::atomic<bool>& stop) {
  std::uint64_t seq = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const Request rq = stream.next();
    ++out.attempted;
    const std::uint64_t t0 = now();
    const auto sub = c.submit(s.handles[rq.shape], rq.payload, api::Priority::kNormal);
    const std::uint64_t t1 = now();
    if (!sub) {
      ++out.failed;
      out.error = "submit: " + c.last_error();
      return;  // the client closed its connection
    }
    if (!sub->accepted) {
      ++out.failed;
      ++out.busy;
      continue;
    }
    const auto res = c.wait_result(sub->exec_id, kResultTimeoutMs);
    const std::uint64_t t2 = now();
    if (!res) {
      ++out.failed;
      out.error = "wait_result: " + c.last_error();
      return;
    }
    if (res->state != static_cast<std::uint8_t>(api::ExecStatus::kCompleted)) {
      ++out.failed;
      continue;
    }
    const std::uint64_t expect = gs.expected_sink[rq.shape];
    if (res->sink_value != expect ||
        res->result != net::wire_result(expect, rq.payload)) {
      ++out.failed;
      ++out.wrong;
      continue;
    }
    out.record(rq.shape, t0, t2);
    if (!traced) continue;

    auto& sum = out.stage_ns[rq.shape];
    sum[kSubmitRtt] += static_cast<double>(t1 - t0);
    sum[kResultGap] += static_cast<double>(t2 - t1);
    ++out.staged[rq.shape];
    const std::uint64_t id = (static_cast<std::uint64_t>(caller) << 48) | seq++;
    const std::uint32_t root = out.spans.add(kSpanRequest, id, t0, t2);
    out.spans.add(kSpanSubmit, id, t0, t1, root);
    out.spans.add(kSpanResult, id, t1, t2, root);
  }
}

/// One METRICS + STATS read of the in-process server (the same bodies the
/// METRICS and STATS frames carry), for deltas across a phase.
struct Scrape {
  std::map<std::string, net::MetricEntry> metrics;
  net::StatsMsg stats;
};

Scrape scrape(net::Server& server) {
  Scrape s;
  for (net::MetricEntry& e : server.metrics_msg().entries) {
    s.metrics.emplace(e.name, std::move(e));
  }
  s.stats = server.stats();
  return s;
}

std::uint64_t value_delta(const Scrape& a, const Scrape& b, const std::string& name) {
  const auto ia = a.metrics.find(name);
  const auto ib = b.metrics.find(name);
  if (ib == b.metrics.end()) return 0;
  return ib->second.value - (ia == a.metrics.end() ? 0 : ia->second.value);
}

/// Histogram delta between two scrapes. The mean is the obs layer's
/// bucket-midpoint estimate (histograms keep no exact sum).
obs::HistSnapshot hist_delta(const Scrape& a, const Scrape& b, const std::string& name) {
  obs::HistSnapshot h;
  const auto ia = a.metrics.find(name);
  const auto ib = b.metrics.find(name);
  if (ib == b.metrics.end()) return h;
  for (std::size_t k = 0; k < h.buckets.size() && k < ib->second.buckets.size(); ++k) {
    const bool had = ia != a.metrics.end() && k < ia->second.buckets.size();
    h.buckets[k] = ib->second.buckets[k] - (had ? ia->second.buckets[k] : 0);
  }
  return h;
}

double mean_us(const obs::HistSnapshot& h) {
  return ratio(h.approx_sum() / 1e3, static_cast<double>(h.count()));
}

std::string plan_hist_name(std::uint64_t handle) {
  char name[64];
  std::snprintf(name, sizeof(name), "submit_complete_ns_plan_%016llx",
                static_cast<unsigned long long>(handle));
  return name;
}

/// The closed loop of kCallers clients over `s`.
ClosedLoop make_loop(const Setup& s, const GraphSet& gs, std::uint64_t seed) {
  return ClosedLoop(kCallers, seed,
                    [&s, &gs](std::uint32_t c, RequestStream& stream, CallerOut& out,
                              bool traced, const std::atomic<bool>& stop) {
                      caller_loop(*s.clients[c], s, gs, stream, out, traced, c, stop);
                    });
}

}  // namespace

ProbeCounts probe_serve_tcp(std::uint64_t seed, double seconds,
                            std::uint32_t max_inflight_per_session) {
  ProbeCounts pc;
  const GraphSet gs = make_graphs(seed);
  net::ServerOptions so = server_options(seed);
  so.max_inflight_per_session = max_inflight_per_session;
  std::string err;
  const std::unique_ptr<Setup> s = set_up(gs, std::move(so), &err);
  if (s == nullptr) return pc;
  ClosedLoop loop = make_loop(*s, gs, seed);
  const Phase p = loop.run(seconds, false);
  pc.attempted = p.attempted;
  pc.succeeded = p.succeeded();
  pc.failed = p.failed;
  pc.busy = p.busy;
  pc.wrong = p.wrong;
  return pc;
}

Report run_serve_tcp(const RunConfig& cfg) {
  Report r;
  const GraphSet gs = make_graphs(cfg.seed);

  std::vector<double> setup_s;
  std::array<std::vector<double>, kShapes> register_ms;
  std::string err;
  const std::unique_ptr<Setup> s = set_up_repeatedly(
      kSetupRounds * kSetupsPerRound, setup_s,
      [&] { return set_up(gs, server_options(cfg.seed), &err); },
      [&](const Setup& x) {
        for (std::uint32_t i = 0; i < kShapes; ++i) register_ms[i].push_back(x.register_ms[i]);
      });
  if (s == nullptr) {
    r.error = "serve-tcp set-up: " + err;
    return r;
  }

  ClosedLoop loop = make_loop(*s, gs, cfg.seed);
  r.wrong += loop.run(kWarmupS, false).wrong;  // verified, but neither timed nor counted
  if (!cfg.trace) {
    const Phase p = loop.run(cfg.seconds, false);
    add_counts(r, p);
    add_end_to_end(r, p, {kShapeNames.begin(), kShapeNames.end()},
                   setup_seconds(setup_s, kSetupsPerRound));
    return r;
  }

  // Traced run: an untraced half (per-shape medians, overhead base), then a
  // traced half bracketed by two scrapes of the server's own metrics. Both
  // scrapes happen with every caller joined, so the deltas hold exactly
  // the traced half's requests.
  net::Server& server = *s->server;
  const Scrape a0 = scrape(server);
  const Phase base = loop.run(cfg.seconds / 2, false);
  server.runtime().reset_counters();
  const Scrape a = scrape(server);
  const Phase tr = loop.run(cfg.seconds / 2, true);
  const Scrape b = scrape(server);
  const rt::WorkerCounters wc = server.runtime().counters();
  add_counts(r, base);
  add_counts(r, tr);

  const LatencySummary bs = summarize(base.latencies, kShapes);
  r.add("latency_p95_us", bs.p95, "us");
  double submit_ns = 0, gap_ns = 0, residual_sum = 0;
  std::uint64_t staged = 0;
  for (std::uint32_t i = 0; i < kShapes; ++i) {
    const std::string sh = kShapeNames[i];
    const double residency = mean_us(hist_delta(a, b, plan_hist_name(s->handles[i])));
    Ledger lg;  // the two client stages partition the request exactly
    lg.latency_us = tr.stage_mean_us(i, kSubmitRtt) + tr.stage_mean_us(i, kResultGap);
    lg.stages = {{"plan.residency", residency}};
    r.add("latency_p50_us." + sh, bs.p50_by_class[i], "us");
    r.add("plan.residency_us." + sh, residency, "us");
    r.add("plan.units." + sh, server.debug_plan(s->handles[i])->num_fused_nodes(), "count");
    r.add("net.register_ms." + sh, median(register_ms[i]), "ms");
    r.add("ledger.residual_share." + sh, lg.residual_share(), "share");
    std::fprintf(stderr, "[ledger] %s\n", lg.format(sh).c_str());
    submit_ns += tr.stage_ns[i][kSubmitRtt];
    gap_ns += tr.stage_ns[i][kResultGap];
    residual_sum += lg.residual_us() * static_cast<double>(tr.staged[i]);
    staged += tr.staged[i];
  }
  const double n = static_cast<double>(staged);
  const double requests = static_cast<double>(b.stats.submitted - a.stats.submitted);
  r.add("net.submit_rtt_us", ratio(submit_ns / 1e3, n), "us");
  r.add("net.result_gap_us", ratio(gap_ns / 1e3, n), "us");
  r.add("net.residual_us", ratio(residual_sum, n), "us");
  r.add("net.dispatch_us", mean_us(hist_delta(a, b, "net_dispatch_ns")), "us");
  r.add("net.reply_us", mean_us(hist_delta(a, b, "net_reply_ns")), "us");
  r.add("net.bytes_per_request",
        ratio(static_cast<double>(value_delta(a, b, "net_bytes_in_total") +
                                  value_delta(a, b, "net_bytes_out_total")),
              requests),
        "B");
  r.add("net.busy_rejections", static_cast<double>(b.stats.rejected_busy - a0.stats.rejected_busy),
        "count");
  r.add("net.protocol_errors",
        static_cast<double>(b.stats.protocol_errors - a0.stats.protocol_errors), "count");
  r.add("rt.queue_wait_us", mean_us(hist_delta(a, b, "queue_wait_ns")), "us");
  r.add("rt.arena_kb", static_cast<double>(b.stats.arena_bytes) / 1024.0, "KiB");
  add_closed_loop_layers(r, "serve-tcp", base, tr, wc);
  std::fprintf(stderr,
               "[unmeasured] rt.queue_wait_us.<shape>, plan.exec_us.<shape>: the server's "
               "Executions live inside its sessions and METRICS keeps one global queue_wait_ns "
               "(see plan.residency_us.<shape>, rt.queue_wait_us); api.submit_us, api.wake_us, "
               "plan.inline_share, plan.compile_us: those calls happen inside the server "
               "(net.register_ms covers the compile)\n");

  write_spans(cfg.trace_out, loop.span_logs(), kSpanNames);
  return r;
}

}  // namespace perfbench
