// Quickstart: monitor a condition with replicated evaluators over lossy
// links, and see what each AD algorithm lets through.
//
//   ./examples/quickstart [--loss 0.2] [--ces 2] [--filter AD-4]
//                         [--updates 30] [--seed 7]
//
// The example:
//   1. compiles a condition from expression-language source,
//   2. generates a reactor-temperature workload,
//   3. runs a replicated simulated system with the chosen AD filter,
//   4. prints the displayed alerts and the run's formal properties
//      (orderedness / completeness / consistency) as defined in the
//      paper "Replicated condition monitoring" (PODC 2001).
#include <iostream>

#include "check/properties.hpp"
#include "core/rcm.hpp"
#include "sim/system.hpp"
#include "trace/generators.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  rcm::util::Args args;
  args.add_flag("loss", "0.2", "front-link loss probability");
  args.add_flag("ces", "2", "number of CE replicas");
  args.add_flag("filter", "AD-4", "AD algorithm: pass, AD-1 .. AD-4");
  args.add_flag("updates", "30", "number of data updates to generate");
  args.add_flag("seed", "7", "random seed");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("quickstart");
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage("quickstart");
    return 0;
  }

  // 1. A condition, straight from text. "Temperature rose by more than
  //    150 degrees between two readings the evaluator actually received"
  //    — an aggressive historical condition, the most fragile class.
  rcm::VariableRegistry vars;
  const rcm::ConditionPtr condition = rcm::expr::compile_condition(
      "temp-spike", "temp[0] - temp[-1] > 150", vars);
  rcm::VarId temp = 0;
  (void)vars.lookup("temp", temp);

  std::cout << "condition : temp[0] - temp[-1] > 150  (degree 2, "
            << (condition->triggering() == rcm::Triggering::kAggressive
                    ? "aggressive"
                    : "conservative")
            << ")\n";

  // 2. A reactor-style workload.
  rcm::util::Rng rng{static_cast<std::uint64_t>(args.get_int("seed"))};
  rcm::trace::ReactorParams workload;
  workload.base.var = temp;
  workload.base.count = static_cast<std::size_t>(args.get_int("updates"));
  workload.excursion_prob = 0.15;

  // 3. The replicated system.
  rcm::sim::SystemConfig config;
  config.condition = condition;
  config.dm_traces = {rcm::trace::reactor_trace(workload, rng)};
  config.num_ces = static_cast<std::size_t>(args.get_int("ces"));
  config.front.loss = args.get_double("loss");
  config.front.delay_max = 0.6;
  config.back.delay_max = 0.6;
  config.filter = rcm::parse_filter_kind(args.get("filter"));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  const rcm::sim::RunResult result = rcm::sim::run_system(config);

  std::cout << "replicas  : " << config.num_ces << ", front-link loss "
            << args.get("loss") << ", filter "
            << rcm::filter_kind_name(config.filter) << "\n";
  for (std::size_t i = 0; i < result.ce_inputs.size(); ++i)
    std::cout << "  CE" << i + 1 << " received "
              << result.ce_inputs[i].size() << "/"
              << result.dm_emitted[0].size() << " updates, raised "
              << result.ce_outputs[i].size() << " alerts\n";
  std::cout << "AD        : " << result.arrived.size() << " alerts arrived, "
            << result.displayed.size() << " displayed\n\n";

  for (const rcm::Alert& a : result.displayed)
    std::cout << "  ALERT " << to_string(a, vars) << "\n";

  // 4. Formal properties of this very run.
  const auto report = rcm::check::check_run(result.as_system_run(condition));
  auto verdict = [](rcm::check::Verdict v) {
    switch (v) {
      case rcm::check::Verdict::kHolds: return "holds";
      case rcm::check::Verdict::kViolated: return "VIOLATED";
      case rcm::check::Verdict::kUnknown: return "undecided";
      case rcm::check::Verdict::kNotChecked: return "not checked";
    }
    return "?";
  };
  std::cout << "\nproperties of this run (vs the corresponding "
               "non-replicated system):\n"
            << "  ordered    : " << verdict(report.ordered) << "\n"
            << "  complete   : " << verdict(report.complete) << "\n"
            << "  consistent : " << verdict(report.consistent) << "\n";
  return 0;
}
