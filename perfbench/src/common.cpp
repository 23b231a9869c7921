#include <sys/resource.h>
#include <sys/utsname.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "bench.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timing.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  return nabbitc::nearest_rank_percentile(v, p);
}

LatencySummary summarize(const std::vector<LatencySample>& samples,
                         std::uint32_t classes) {
  LatencySummary s;
  std::vector<std::vector<double>> by_class(classes);
  std::vector<double> all;
  all.reserve(samples.size());
  for (const LatencySample& x : samples) {
    by_class[x.cls].push_back(x.us);
    all.push_back(x.us);
  }
  s.p95 = percentile(all, 0.95);
  std::vector<double> class_p50;
  for (std::uint32_t c = 0; c < classes; ++c) {
    const std::vector<double>& v = by_class[c];
    double sum = 0;
    for (const double x : v) sum += x;
    s.count_by_class.push_back(v.size());
    s.mean_by_class.push_back(v.empty() ? 0.0 : sum / static_cast<double>(v.size()));
    s.p50_by_class.push_back(percentile(v, 0.50));
    if (!v.empty()) class_p50.push_back(s.p50_by_class.back());
  }
  s.gmean_p50 = nabbitc::geomean(class_p50);
  return s;
}

void print_classes(const LatencySummary& s, const std::vector<const char*>& names) {
  for (std::size_t c = 0; c < names.size(); ++c) {
    std::fprintf(stderr, "[class] %-18s n=%-8llu p50=%.2fus mean=%.2fus\n", names[c],
                 static_cast<unsigned long long>(s.count_by_class[c]), s.p50_by_class[c],
                 s.mean_by_class[c]);
  }
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

Phase run_callers(
    std::vector<CallerOut>& outs, double seconds,
    const std::function<void(std::uint32_t, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  const std::uint64_t t0 = now();
  std::vector<std::thread> threads;
  threads.reserve(outs.size());
  for (std::uint32_t i = 0; i < outs.size(); ++i) {
    outs[i].phase_start_ns = t0;
    threads.emplace_back([&body, &stop, i] { body(i, stop); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  Phase p;
  p.seconds = static_cast<double>(now() - t0) / 1e9;
  p.peak_rss_mb = peak_rss_mb();
  const std::size_t classes = outs.empty() ? 0 : outs[0].staged.size();
  p.stage_ns.assign(classes, std::array<double, CallerOut::kMaxStages>{});
  p.staged.assign(classes, 0);
  for (const CallerOut& o : outs) {
    p.attempted += o.attempted;
    p.failed += o.failed;
    p.wrong += o.wrong;
    p.busy += o.busy;
    p.completed += o.completed;
    p.latencies.insert(p.latencies.end(), o.latencies.begin(), o.latencies.end());
    if (o.per_second.size() > p.per_second.size()) p.per_second.resize(o.per_second.size());
    for (std::size_t k = 0; k < o.per_second.size(); ++k) p.per_second[k].merge(o.per_second[k]);
    for (std::size_t c = 0; c < classes; ++c) {
      p.staged[c] += o.staged[c];
      for (std::size_t k = 0; k < CallerOut::kMaxStages; ++k) {
        p.stage_ns[c][k] += o.stage_ns[c][k];
      }
    }
    if (p.error.empty()) p.error = o.error;
  }
  return p;
}

double setup_seconds(const std::vector<double>& secs, std::size_t per_round) {
  std::vector<double> best;
  for (std::size_t k = 0; k + per_round <= secs.size(); k += per_round) {
    best.push_back(*std::min_element(secs.begin() + static_cast<std::ptrdiff_t>(k),
                                     secs.begin() + static_cast<std::ptrdiff_t>(k + per_round)));
  }
  const double setup_s = median(best);
  std::fprintf(stderr,
               "[setup] n=%zu min=%.3fms p25=%.3fms p50=%.3fms p75=%.3fms max=%.3fms; "
               "median of %zu rounds' best=%.3fms\n",
               secs.size(), percentile(secs, 0) * 1e3, percentile(secs, 0.25) * 1e3,
               percentile(secs, 0.5) * 1e3, percentile(secs, 0.75) * 1e3,
               percentile(secs, 1) * 1e3, best.size(), setup_s * 1e3);
  return setup_s;
}

ClosedLoop::ClosedLoop(std::uint32_t callers, std::uint64_t seed, Body body)
    : body_(std::move(body)) {
  for (std::uint32_t c = 0; c < callers; ++c) streams_.emplace_back(seed, c);
}

Phase ClosedLoop::run(double seconds, bool traced) {
  outs_.clear();
  for (std::size_t c = 0; c < streams_.size(); ++c) {
    outs_.emplace_back(kShapes);
    if (traced) outs_.back().spans = SpanLog(1u << 16);
  }
  return run_callers(outs_, seconds, [&](std::uint32_t c, const std::atomic<bool>& stop) {
    body_(c, streams_[c], outs_[c], traced, stop);
  });
}

std::vector<const SpanLog*> ClosedLoop::span_logs() const {
  std::vector<const SpanLog*> logs;
  for (const CallerOut& o : outs_) logs.push_back(&o.spans);
  return logs;
}

void add_counts(Report& r, const Phase& p) {
  r.attempted += p.attempted;
  r.failed += p.failed;
  r.wrong += p.wrong;
  if (!p.error.empty()) std::fprintf(stderr, "[callers] stopped early: %s\n", p.error.c_str());
}

void add_end_to_end(Report& r, const Phase& p, const std::vector<const char*>& classes,
                    double setup_s) {
  const LatencySummary s = summarize(p.latencies, static_cast<std::uint32_t>(classes.size()));
  print_classes(s, classes);
  // Whole seconds only: the tail after the stop is left out.
  std::vector<double> rates;
  for (std::size_t k = 1; k < p.per_second.size() && k + 1 <= p.seconds; ++k) {
    const SecondBin& prev = p.per_second[k - 1];
    const SecondBin& b = p.per_second[k];
    if (prev.n > 0 && b.n > 0) {
      rates.push_back(static_cast<double>(b.n) * 1e9 /
                      static_cast<double>(b.last_ns - prev.last_ns));
    }
  }
  r.add("graphs_per_s", median(rates), "1/s");
  r.add("latency_gmean_p50_us", s.gmean_p50, "us");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", p.peak_rss_mb, "MB");
}

void add_closed_loop_layers(Report& r, const std::string& workload, const Phase& base,
                            const Phase& traced, const nabbitc::rt::WorkerCounters& wc) {
  const auto graphs = [](const Phase& p) { return static_cast<double>(p.succeeded()); };
  r.add("rt.steals_per_graph", ratio(static_cast<double>(wc.steals_total()), graphs(traced)),
        "count");
  r.add("rt.steal_success_ratio",
        ratio(static_cast<double>(wc.steals_total()),
              static_cast<double>(wc.steal_attempts_total())),
        "share");
  r.add("fail_share",
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "share");
  r.add("trace.overhead_share." + workload,
        ratio(graphs(base) / base.seconds, graphs(traced) / traced.seconds) - 1.0, "share");
}

double Ledger::covered_us() const {
  double c = 0;
  for (const Stage& st : stages) c += st.mean_us;
  return c;
}

double Ledger::residual_share() const {
  return latency_us > 0 ? residual_us() / latency_us : 0.0;
}

std::string Ledger::format(const std::string& label) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-8s latency=%.2fus", label.c_str(),
                latency_us);
  std::string out = buf;
  for (const Stage& st : stages) {
    std::snprintf(buf, sizeof(buf), "  %s=%.2fus", st.name.c_str(),
                  st.mean_us);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  residual=%.2fus (%.1f%%)", residual_us(),
                100.0 * residual_share());
  out += buf;
  return out;
}

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs,
                 const std::vector<const char*>& names) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[trace] could not open %s\n", path.c_str());
    return;
  }
  std::uint64_t written = 0, dropped = 0;
  std::fprintf(f, "log,request,name,parent,start_ns,end_ns\n");
  for (std::size_t l = 0; l < logs.size(); ++l) {
    dropped += logs[l]->dropped();
    for (const Span& s : logs[l]->spans()) {
      const long long parent =
          s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent);
      std::fprintf(f, "%zu,%llu,%s,%lld,%llu,%llu\n", l,
                   static_cast<unsigned long long>(s.request), names.at(s.name),
                   parent, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
      ++written;
    }
  }
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "[trace] could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "[trace] %llu spans -> %s (%llu dropped past capacity)\n",
               static_cast<unsigned long long>(written), path.c_str(),
               static_cast<unsigned long long>(dropped));
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

/// The calibration op: a dependent chain of SplitMix64 steps, so neither
/// the compiler nor the core can overlap iterations. Best of 5 reps.
double calibrate_ns() {
  constexpr std::uint64_t kSteps = 1u << 21;
  double best = 0;
  std::uint64_t x = 0x5eed;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = nabbitc::now_ns();
    for (std::uint64_t i = 0; i < kSteps; ++i) x = nabbitc::splitmix64(x);
    const double ns =
        static_cast<double>(nabbitc::now_ns() - t0) / static_cast<double>(kSteps);
    if (rep == 0 || ns < best) best = ns;
  }
  // Keeps the chain alive; the branch is never taken in practice.
  if (x == 0) std::fprintf(stderr, "calibration chain hit zero\n");
  return best;
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.cpu = cpu_model();
  h.nproc = std::thread::hardware_concurrency();
  struct utsname u {};
  h.kernel = ::uname(&u) == 0 ? u.release : "unknown";
  h.calib_ns = calibrate_ns();
  return h;
}

std::string host_json(const HostInfo& h) {
  std::string cpu;
  for (const char c : h.cpu) {
    if (c == '"' || c == '\\') cpu += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) cpu += c;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu\": \"%s\", \"nproc\": %u, \"kernel\": \"%s\", "
                "\"pinned\": %s, \"calib_ns\": %.4f}",
                cpu.c_str(), h.nproc, h.kernel.c_str(),
                h.pinned ? "true" : "false", h.calib_ns);
  return buf;
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t now() { return nabbitc::now_ns(); }

}  // namespace perfbench
