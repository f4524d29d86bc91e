#include "swarm/fuzz_plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <system_error>

#include "check/completeness.hpp"
#include "check/consistency.hpp"
#include "check/properties.hpp"
#include "core/evaluator.hpp"
#include "exp/table_experiment.hpp"

namespace rcm::swarm {
namespace {

constexpr KindChoice kKinds[] = {
    {ConditionKind::kThreshold, 60.0, exp::Scenario::kLossyNonHistorical},
    {ConditionKind::kRiseAggressive, 20.0, exp::Scenario::kLossyAggressive},
    {ConditionKind::kRiseConservative, 20.0,
     exp::Scenario::kLossyConservative},
    {ConditionKind::kAbsDiff, 30.0, exp::Scenario::kLossyNonHistorical},
    {ConditionKind::kBand, 30.0, exp::Scenario::kLossyNonHistorical},
    {ConditionKind::kRise2dAggressive, 25.0,
     exp::Scenario::kLossyAggressive},
    {ConditionKind::kRise2dConservative, 25.0,
     exp::Scenario::kLossyConservative},
};

// Filters with a paper-claim table for the arity (see exp::paper_claim).
constexpr FilterKind kSingleVarFilters[] = {FilterKind::kAd1, FilterKind::kAd2,
                                            FilterKind::kAd3,
                                            FilterKind::kAd4};
constexpr FilterKind kMultiVarFilters[] = {FilterKind::kAd1, FilterKind::kAd5,
                                           FilterKind::kAd6};

}  // namespace

RunPlan make_service_plan(util::Rng& rng) {
  RunPlan plan;
  plan.choice = kKinds[static_cast<std::size_t>(
      rng.uniform_int(0, std::size(kKinds) - 1))];
  const std::size_t arity = condition_arity(plan.choice.kind);
  if (arity == 1) {
    plan.filter = kSingleVarFilters[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(kSingleVarFilters) - 1))];
  } else {
    plan.filter = kMultiVarFilters[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(kMultiVarFilters) - 1))];
  }
  plan.replicas = static_cast<std::size_t>(rng.uniform_int(1, 3));
  constexpr std::size_t kCheckpointChoices[] = {1, 3, 8, 32, 117};
  plan.checkpoint_every = kCheckpointChoices[static_cast<std::size_t>(
      rng.uniform_int(0, std::size(kCheckpointChoices) - 1))];
  plan.updates_per_var = static_cast<std::size_t>(rng.uniform_int(30, 120));
  plan.auto_restart = rng.bernoulli(0.5);
  plan.dup_prob = rng.bernoulli(0.5) ? 0.05 : 0.0;

  // Interleaved feed: per-variable seqnos ascend; the interleaving across
  // variables is random.
  std::vector<SeqNo> next_seqno(arity, 1);
  std::vector<std::size_t> remaining(arity, plan.updates_per_var);
  std::size_t total = arity * plan.updates_per_var;
  plan.feed.reserve(total);
  while (total > 0) {
    std::size_t var;
    do {
      var = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(arity) - 1));
    } while (remaining[var] == 0);
    plan.feed.push_back(Update{static_cast<VarId>(var), next_seqno[var]++,
                               rng.uniform(0.0, 100.0)});
    --remaining[var];
    --total;
  }

  const std::size_t kill_count =
      static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t k = 0; k < kill_count; ++k) {
    KillEvent e;
    e.at_step = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(plan.feed.size()) - 1));
    e.replica = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(plan.replicas) - 1));
    e.restart_after = static_cast<std::size_t>(rng.uniform_int(1, 20));
    plan.kills.push_back(e);
  }
  std::sort(plan.kills.begin(), plan.kills.end(),
            [](const KillEvent& a, const KillEvent& b) {
              return a.at_step < b.at_step;
            });
  return plan;
}

void send_ignoring_errors(net::UdpSocket& socket, std::uint16_t port,
                          std::span<const std::uint8_t> bytes) {
  try {
    socket.send_to(port, bytes);
  } catch (const std::system_error&) {
    // A closed replica port can surface as ECONNREFUSED on a later send
    // (ICMP unreachable); that IS the lossy link, not an error.
  }
}

ServiceRunCheck check_service_run(
    const RunPlan& plan, const std::vector<Update>& sent,
    std::vector<std::vector<Update>> journals, std::vector<Alert> displayed,
    const std::vector<AlertProvenance>& provenance, std::size_t kills,
    std::vector<std::size_t> displayer_epochs) {
  ServiceRunCheck result;
  std::vector<std::string>& violations = result.violations;
  const ConditionPtr condition =
      build_condition(plan.choice.kind, plan.choice.param);
  const std::size_t arity = condition_arity(plan.choice.kind);

  // Index the sent stream: (var, seqno) -> value.
  std::map<std::pair<VarId, SeqNo>, double> sent_index;
  for (const Update& u : sent) sent_index[{u.var, u.seqno}] = u.value;

  // Invariant 1: journals are per-variable strictly-increasing
  // subsequences of the sent stream.
  for (std::size_t i = 0; i < journals.size(); ++i) {
    std::map<VarId, SeqNo> last;
    for (const Update& u : journals[i]) {
      const auto it = sent_index.find({u.var, u.seqno});
      if (it == sent_index.end() || it->second != u.value) {
        std::ostringstream out;
        out << "journal " << i << " contains update (var " << u.var
            << ", seq " << u.seqno << ") that was never sent";
        violations.push_back(out.str());
        continue;
      }
      const auto lit = last.find(u.var);
      if (lit != last.end() && u.seqno <= lit->second) {
        std::ostringstream out;
        out << "journal " << i << " not strictly increasing for var "
            << u.var << " at seq " << u.seqno;
        violations.push_back(out.str());
      }
      last[u.var] = u.seqno;
    }
  }

  // Invariant 2: every displayed alert was raised by some incarnation of
  // some replica — displayed keys ⊆ ∪_i keys(T(journal_i)).
  std::set<AlertKey> raised;
  std::size_t raised_count = 0;
  for (const auto& journal : journals) {
    for (const Alert& a : evaluate_trace(condition, journal)) {
      raised.insert(a.key());
      ++raised_count;
    }
  }
  for (const Alert& a : displayed) {
    if (!raised.contains(a.key())) {
      violations.push_back("displayed alert no replica raised: " +
                           a.key().cond);
      break;
    }
  }

  // Invariant 3: provenance records stay consistent with the journal
  // invariants — every displayed alert has exactly one displayed=true
  // record (in order) whose triggering (var, seq) updates all appear in
  // at least one replica journal, i.e. provenance never names an update
  // the durable layer does not know about.
  std::set<std::pair<VarId, SeqNo>> journaled;
  for (const auto& journal : journals)
    for (const Update& u : journal) journaled.emplace(u.var, u.seqno);
  std::vector<const AlertProvenance*> shown;
  for (const AlertProvenance& p : provenance)
    if (p.displayed) shown.push_back(&p);
  if (shown.size() != displayed.size()) {
    std::ostringstream out;
    out << "provenance shows " << shown.size() << " displayed record(s) but "
        << displayed.size() << " alert(s) were displayed";
    violations.push_back(out.str());
  } else {
    for (std::size_t k = 0; k < displayed.size(); ++k) {
      const AlertProvenance& p = *shown[k];
      std::vector<std::pair<VarId, SeqNo>> expect;
      for (const auto& [var, seqs] : displayed[k].key().signature)
        for (SeqNo s : seqs) expect.emplace_back(var, s);
      if (p.cond != displayed[k].cond || p.triggers != expect) {
        std::ostringstream out;
        out << "provenance record " << p.arrival_index
            << " does not match displayed alert " << k << " ("
            << displayed[k].cond << ")";
        violations.push_back(out.str());
        break;
      }
      bool unjournaled = false;
      for (const auto& trig : p.triggers)
        if (!journaled.contains(trig)) unjournaled = true;
      if (unjournaled) {
        std::ostringstream out;
        out << "provenance of displayed alert " << k
            << " names a trigger absent from every replica journal";
        violations.push_back(out.str());
        break;
      }
    }
  }
  for (const AlertProvenance& p : provenance) {
    if (p.reason == nullptr || p.reason[0] == '\0' ||
        p.filter != std::string(filter_kind_name(plan.filter))) {
      violations.push_back("provenance record missing verdict reason or "
                           "filter name");
      break;
    }
  }

  // Paper-table oracle for the observed scenario. A replica that
  // accepted every sent update makes no difference from a lossless one,
  // whether or not it was killed; any miss puts the run in the lossy row
  // of the condition's class.
  bool missed = false;
  for (const auto& journal : journals)
    if (journal.size() != sent.size()) missed = true;
  const exp::Scenario scenario =
      missed ? plan.choice.lossy_row : exp::Scenario::kLossless;
  const exp::PaperClaim claim =
      exp::paper_claim(plan.filter, scenario, arity > 1);

  if (displayer_epochs.empty()) displayer_epochs = {displayed.size()};

  const auto violated = [&](const char* property) {
    std::ostringstream out;
    out << "guaranteed " << property << " violated ("
        << std::string(filter_kind_name(plan.filter)) << ", "
        << exp::scenario_name(scenario) << ", " << kills << " kill(s), "
        << raised_count << " raised)";
    violations.push_back(out.str());
  };

  // Completeness is ledger-free (journal replay vs the displayed union).
  // Its search is the costly check, so it runs only where it is claimed.
  if (claim.complete) {
    check::SystemRun run;
    run.condition = condition;
    run.ce_inputs = journals;
    run.displayed = displayed;
    const check::Verdict complete = check::check_complete(run);
    if (complete == check::Verdict::kViolated) violated("completeness");
    result.undecided_claimed = complete == check::Verdict::kUnknown;
  }

  // Orderedness and consistency are guaranteed by the AD's volatile
  // ledger, so each displayer incarnation is its own claim scope: a
  // service restart (the upgrade fuzz boundary) starts a fresh ledger
  // that cannot know what the previous incarnation displayed.
  std::size_t begin = 0;
  for (const std::size_t epoch : displayer_epochs) {
    check::SystemRun slice;
    slice.condition = condition;
    slice.ce_inputs = journals;
    slice.displayed = {displayed.begin() + static_cast<std::ptrdiff_t>(begin),
                       displayed.begin() +
                           static_cast<std::ptrdiff_t>(begin + epoch)};
    begin += epoch;
    if (claim.ordered &&
        !check::check_ordered(slice.displayed, condition->variables()))
      violated("orderedness");
    if (claim.consistent && !check::check_consistent(slice).consistent)
      violated("consistency");
  }
  if (begin != displayed.size())
    violations.push_back("displayer epochs do not partition the displayed "
                         "alert sequence");
  return result;
}

}  // namespace rcm::swarm
