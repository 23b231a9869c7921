// perfbench: one run of one workload.
//
//   perfbench --workload serve-tcp|replay-inproc|solve-real --seed N
//             --seconds S --trace 0|1 [--trace-out spans.csv]
//
// Prints the host fingerprint and the run's counts as '#' lines, then, as
// the last line of stdout, one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones untraced, per-layer ones traced). Exits 1
// when any output failed verification, 2 on bad arguments or set-up
// failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload serve-tcp|replay-inproc|solve-real "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      cfg.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      cfg.trace_out = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (0 < S <= 600) and --trace are required");
  }

  Report (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "serve-tcp") run = perfbench::run_serve_tcp;
  if (cfg.workload == "replay-inproc") run = perfbench::run_replay_inproc;
  if (cfg.workload == "solve-real") run = perfbench::run_solve_real;
  if (run == nullptr) return usage(("unknown workload '" + cfg.workload + "'").c_str());

  const perfbench::HostInfo host = perfbench::host_info();
  std::printf("# host %s\n", perfbench::host_json(host).c_str());
  std::fflush(stdout);

  Report r = run(cfg);
  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
    return 2;
  }
  if (cfg.trace) r.add("host.calib_ns", host.calib_ns, "ns");
  std::printf("# counts workload=%s seed=%llu sent=%llu succeeded=%llu failed=%llu wrong=%llu\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.attempted - r.failed),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong));
  print_json(r);
  return r.correct() ? 0 : 1;
}
