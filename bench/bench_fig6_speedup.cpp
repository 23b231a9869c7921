// Figure 6: speedup over serial for all ten benchmarks under OMP-static,
// OMP-guided, Nabbit, and NabbitC. x-axis = cores, y-axis = speedup.
//
// mode=sim (default) runs the simulated 80-core 8-domain machine. The paper
// shows OMP-guided only for PageRank; we print it everywhere. Expected
// shapes (checked in EXPERIMENTS.md): OMP-static best on the regular
// benchmarks with NabbitC close behind and Nabbit trailing badly; NabbitC on
// top for the irregular PageRank datasets; nabbit ~ nabbitc for the
// wavefronts, both above the barrier-synchronized OMP version.
//
// mode=real runs the same cells on this host's cores (P <= the CPUs in the
// process's affinity mask) through harness::run_real: every variant
// `repeats` times, checksums verified against serial, between two batches
// of `repeats` serial runs. Speedup is the pooled serial median over the
// variant's median; min/max use the variant's slowest/fastest repeat. The
// table and a JSON file (out=, default BENCH_real.json) carry the host
// fingerprint.
//
//   bench_fig6_speedup mode=real [preset=small] [cores=1,2,4] [repeats=5]
//                      [workloads=...] [variants=...] [out=BENCH_real.json]
#include "bench/bench_common.h"

using namespace nabbitc;
using api::Variant;

namespace {

int run_sim_figure(const bench::BenchArgs& args) {
  bench::print_header("Figure 6: speedup vs cores (simulated)");
  const auto variants = bench::variants_or(
      args, {Variant::kOmpStatic, Variant::kOmpGuided, Variant::kNabbit,
             Variant::kNabbitC});
  for (const auto& name : args.workloads) {
    auto w = wl::make_workload(name, args.preset);
    if (!w) continue;
    std::printf("## %s (%s, %llu nodes)\n", name.c_str(),
                w->problem_string().c_str(),
                static_cast<unsigned long long>(w->num_tasks()));
    std::vector<std::string> hdr{"scheduler"};
    for (auto p : args.cores) hdr.push_back("P=" + std::to_string(p));
    Table t(hdr);
    for (Variant v : variants) {
      std::vector<std::string> row{api::variant_name(v)};
      for (auto p : args.cores) {
        harness::SimSweepOptions so;
        so.seed = args.seed;
        auto r = harness::run_sim(*w, v, p, so);
        row.push_back(Table::fmt(r.speedup(), 2));
      }
      t.add_row(std::move(row));
      std::fflush(stdout);
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  return 0;
}

int run_real_figure(const bench::BenchArgs& args) {
  const std::uint32_t nproc = bench::usable_cpus();
  std::vector<std::uint32_t> cores;
  for (auto p : args.cfg.get_int_list("cores", {1, 2, 4})) {
    if (p >= 1 && static_cast<std::uint32_t>(p) <= nproc) {
      cores.push_back(static_cast<std::uint32_t>(p));
    }
  }
  const auto repeats =
      static_cast<std::uint32_t>(args.cfg.get_int("repeats", 5));
  const std::string out = args.cfg.get("out", "BENCH_real.json");
  const std::string host = bench::host_fingerprint_json(false);
  const auto variants = bench::variants_or(
      args, {Variant::kOmpStatic, Variant::kOmpGuided, Variant::kNabbit,
             Variant::kNabbitC});

  std::printf("NabbitC reproduction — Figure 6: speedup vs cores (real, %s preset)\n",
              wl::preset_name(args.preset));
  std::printf("host %s, %u repeats per cell, speedup = serial median / median\n\n",
              host.c_str(), repeats);

  std::string json = "{\n  \"bench\": \"fig6_real\",\n  \"host\": " + host +
                     ",\n  \"preset\": \"" + wl::preset_name(args.preset) +
                     "\",\n  \"repeats\": " + std::to_string(repeats) +
                     ",\n  \"workloads\": {";
  bool first_wl = true;
  for (const auto& name : args.workloads) {
    auto w = wl::make_workload(name, args.preset);
    if (!w) continue;
    harness::RealRunOptions base;
    base.repeats = repeats;
    const auto serial = harness::run_real(*w, Variant::kSerial, base);
    // The variants' results, kept until the second serial batch is in: the
    // baseline pools `repeats` serial runs before the sweep and `repeats`
    // after, so a slow stretch of a shared host at one end moves it less.
    std::vector<std::vector<harness::RealRunResult>> runs;
    for (Variant v : variants) {
      runs.emplace_back();
      for (auto p : cores) {
        harness::RealRunOptions o = base;
        o.workers = p;
        runs.back().push_back(harness::run_real(*w, v, o));
        NABBITC_CHECK_MSG(runs.back().back().checksum == serial.checksum,
                          "real run diverged from the serial checksum");
      }
    }
    Samples serial_s = serial.seconds;
    const auto serial_after = harness::run_real(*w, Variant::kSerial, base);
    for (double x : serial_after.seconds.values()) serial_s.add(x);
    const double serial_med = serial_s.median();
    std::printf("## %s (%s, %llu nodes), serial %.3f ms [%.3f-%.3f]\n",
                name.c_str(), w->problem_string().c_str(),
                static_cast<unsigned long long>(w->num_tasks()), serial_med * 1e3,
                serial_s.min() * 1e3, serial_s.max() * 1e3);
    std::vector<std::string> hdr{"scheduler"};
    for (auto p : cores) hdr.push_back("P=" + std::to_string(p));
    Table t(hdr);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"serial_s\": {\"median\": %.6f, \"min\": "
                  "%.6f, \"max\": %.6f}",
                  first_wl ? "" : ",", name.c_str(), serial_med, serial_s.min(),
                  serial_s.max());
    json += buf;
    first_wl = false;
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      std::vector<std::string> row{api::variant_name(variants[vi])};
      json += std::string(",\n      \"") + api::variant_name(variants[vi]) + "\": {";
      for (std::size_t i = 0; i < cores.size(); ++i) {
        const Samples& x = runs[vi][i].seconds;
        const double med = serial_med / x.median();
        const double lo = serial_med / x.max();
        const double hi = serial_med / x.min();
        row.push_back(Table::fmt(med, 2) + " [" + Table::fmt(lo, 2) + "-" +
                      Table::fmt(hi, 2) + "]");
        std::snprintf(buf, sizeof(buf),
                      "%s\"p%u\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f}",
                      i == 0 ? "" : ", ", cores[i], med, lo, hi);
        json += buf;
      }
      json += "}";
      t.add_row(std::move(row));
    }
    json += "}";
    std::printf("%s\n", t.to_string().c_str());
  }
  json += "\n  }\n}\n";
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAILED to open %s\n", out.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("[bench] wrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool real = Config::from_args(argc, argv).get("mode", "sim") == "real";
  bench::BenchArgs args = bench::parse_args(argc, argv, real ? "small" : "paper");
  return real ? run_real_figure(args) : run_sim_figure(args);
}
