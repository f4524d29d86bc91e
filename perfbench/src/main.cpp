// rcm_perfbench — the repo benchmark. One process drives the real
// AlertService / ShardedCluster (ingest, fanout, sharded) or a serial
// swarm batch (swarm), checks the outputs, and prints every metric by
// name with its unit, then one JSON result line.
//
//   rcm_perfbench --workload ingest|fanout|sharded|swarm --seed N
//                 --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is the separate traced run: it replays the workload's
// generated inputs through each layer's public functions with spans
// around the calls, and prints the per-layer table.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "replay.hpp"
#include "service_load.hpp"
#include "swarm_load.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rcm_perfbench --workload ingest|fanout|sharded|swarm "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  const bool service = opt.workload == "ingest" || opt.workload == "fanout" ||
                       opt.workload == "sharded";
  if ((!service && opt.workload != "swarm") || opt.seconds <= 0) return usage();

  perfbench::pin_service_cpus();
  try {
    std::filesystem::remove_all(opt.work_dir);
    std::filesystem::create_directories(opt.work_dir);
    std::printf("workload %s  seed %llu  seconds %.0f  trace %d%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.smoke ? "  (smoke)" : "");
    perfbench::Result r;
    if (opt.trace) {
      r = perfbench::run_traced(opt);
      r.json_names = perfbench::per_layer_metric_names();
    } else {
      r = service ? perfbench::run_service_workload(opt)
                  : perfbench::run_swarm_workload(opt);
      r.json_names = perfbench::end_to_end_metric_names();
    }
    std::filesystem::remove_all(opt.work_dir);
    perfbench::print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcm_perfbench: %s\n", e.what());
    return 1;
  }
}
