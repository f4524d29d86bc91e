// Mixed-version restarting fuzz: the FoundationDB-style upgrade test,
// run as a sibling of service_fuzz.hpp's crash fuzz.
//
// Each seeded run is one simulated rolling upgrade of a live service:
//
//   phase A  a real AlertService ingests the first half of the feed
//            over UDP (no kills), drains gracefully, and leaves its
//            durable state (checkpoints, WALs, journals, ends log)
//            behind;
//   transcode  that state is rewritten BYTE-FOR-BYTE as a v1 binary
//            would have left it (wire/legacy.hpp encoders): headerless
//            WALs and journals, 's'-tagged snapshots — plus the two
//            artifacts a real crash leaves, a stale WAL prefix of
//            already-checkpointed records and an optional torn tail;
//   phase B  a second AlertService (the "upgraded binary") recovers
//            that v1 state, ingests the rest of the feed under random
//            kill/restart schedules and duplicate resends of phase-A
//            updates, then terminates with the END protocol.
//
// The oracle is EXACTLY the crash-fuzz oracle (swarm/fuzz_plan.hpp) over
// the concatenated observables of both phases: journal invariants,
// displayed ⊆ raised, provenance consistency, and the paper's AD-1..AD-6
// guarantee table for the cell classified from the full journals. Any
// watermark regression across the version boundary shows up as a
// journal-monotonicity or duplicate-display violation; any state
// mistranslation shows up as a displayed-but-never-raised alert.
//
// One boundary subtlety: the AD's ledger (what AD-2/AD-3 use to
// guarantee orderedness/consistency across alerts) is volatile, so the
// two phases are two displayer incarnations and the ledger-backed
// guarantees are claimed per incarnation — the oracle's
// `displayer_epochs` parameter encodes exactly this. Completeness and
// every mechanical invariant still hold over the union.
//
// Each run also performs direct forward-compat checks on the snapshot
// codec: a v2 snapshot carrying an unknown skippable extension must
// decode to identical state, a simulated v1 reader must reject v2 bytes
// with DecodeError, and a future-major header must be rejected with the
// typed UnsupportedVersion, never a crash or a misparse.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace rcm::swarm {

struct UpgradeFuzzOptions {
  std::uint64_t seed = 1;
  std::size_t runs = 50;
  /// Scratch root for per-run data dirs; empty = system temp. Each run's
  /// directory is removed after a clean check, kept on violation.
  std::filesystem::path scratch_dir;
  bool verbose = false;
};

struct UpgradeFuzzViolation {
  std::size_t run_index = 0;
  std::uint64_t seed = 0;  ///< batch seed; run_index re-derives the run
  std::string description;
  std::filesystem::path data_dir;  ///< durable state kept for post-mortem
};

struct UpgradeFuzzReport {
  std::size_t runs_executed = 0;
  std::size_t runs_with_kills = 0;
  std::size_t runs_with_alerts = 0;
  std::size_t total_kills = 0;
  std::size_t total_restarts = 0;
  /// Runs where a claimed property came back undecided (kUnknown).
  std::size_t undecided_claimed = 0;
  std::size_t transcoded_files = 0;    ///< durable files rewritten as v1
  std::size_t torn_tails_injected = 0; ///< v1 WALs left with a torn frame
  std::size_t stale_wal_records = 0;   ///< already-checkpointed records
                                       ///< re-planted in v1 WALs
  std::size_t duplicate_resends = 0;   ///< phase-A updates resent in B
  std::vector<UpgradeFuzzViolation> violations;

  [[nodiscard]] bool failed() const noexcept { return !violations.empty(); }
};

/// Runs the batch. Throws std::runtime_error on environment errors
/// (scratch dir not writable); violations are reported, not thrown.
[[nodiscard]] UpgradeFuzzReport run_upgrade_fuzz(
    const UpgradeFuzzOptions& options);

}  // namespace rcm::swarm
