#pragma once
// Per-round experiment metrics: the quantities the paper's figures and tables
// report (average training loss, test accuracy) plus diagnostics (consensus
// distance, communication volume).

#include <cstddef>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "fleet/lazy_matrix.hpp"
#include "obs/phase.hpp"

namespace pdsl::sim {

struct RoundMetrics {
  std::size_t round = 0;
  double avg_loss = 0.0;        ///< mean over agents of F_i(x_i) on local eval data
  double test_accuracy = 0.0;   ///< mean over agents of accuracy(x_i) on the test set
  double consensus = 0.0;       ///< mean over agents of ||x_i - x_bar||_2
  std::size_t messages = 0;     ///< cumulative network messages so far
  std::size_t bytes = 0;        ///< cumulative network bytes so far
  double elapsed_s = 0.0;       ///< cumulative run wall time after this round
  double round_s = 0.0;         ///< wall time of this round's run_round alone
  obs::PhaseTimings phases;     ///< where round_s went (S-OBS breakdown)
  // S-FAULT: dropped/delayed are cumulative network totals (like
  // messages/bytes); the rest are this round's degradation events.
  std::size_t dropped = 0;      ///< cumulative messages lost (drops + churn)
  std::size_t delayed = 0;      ///< cumulative messages delayed in flight
  std::size_t offline = 0;      ///< agents churned out this round
  std::size_t stale_reused = 0; ///< cached cross-gradients substituted this round
  std::size_t fallbacks = 0;    ///< self-gradient fallbacks this round
  // S-BYZ: adversary activity + defense screening.
  std::size_t byz_active = 0;   ///< agents with an active Byzantine role this round
  std::size_t corrupted = 0;    ///< cumulative payloads corrupted on the wire
  std::size_t rejected = 0;     ///< non-finite payloads refused this round
  std::size_t reclipped = 0;    ///< received gradients re-clipped to C this round
  double pi_attacker = 0.0;     ///< mean defense weight on attacker-origin edges
  double pi_honest = 0.0;       ///< mean defense weight on honest-origin edges
  // S-BENCH360: cumulative privacy budget spent through this round — the RDP
  // accountant's (epsilon, delta)-DP conversion at the run's delta after
  // composing one Gaussian-mechanism release per agent per round. 0 when the
  // run is non-private (sigma = 0). Monotonically non-decreasing.
  double epsilon_spent = 0.0;
  // S-SHAP: this round's coalition-scoring budget (all agents). Zero for
  // algorithms without a Shapley phase.
  std::size_t shapley_evals = 0;        ///< characteristic evaluations run
  std::size_t shapley_early_stops = 0;  ///< agents whose MC sampler CI-stopped early
  // S-RECOV: unreliable-channel transport + crash/recovery activity.
  // Transport counters are cumulative network totals (like messages/bytes);
  // crashes/resyncs are this round's events.
  std::size_t retransmits = 0;      ///< cumulative frames resent after a NACK
  std::size_t corrupt_detected = 0; ///< cumulative checksum-caught bit flips
  std::size_t dup_dropped = 0;      ///< cumulative duplicate copies deduped
  std::size_t reordered = 0;        ///< cumulative front-of-queue deliveries
  std::size_t crashes = 0;          ///< agents crashed and restarted this round
  std::size_t resyncs = 0;          ///< crashed agents that got a neighbor resync
};

/// One column of the per-round metrics: its CSV name and the RoundMetrics
/// member it reads. Exactly one of `count`, `real`, `phase` is set; phase
/// columns live in RoundMetrics::phases. Volatile columns are wall-clock
/// measurements, outside every bit-identity contract.
struct RoundColumn {
  const char* name;
  std::size_t RoundMetrics::*count = nullptr;
  double RoundMetrics::*real = nullptr;
  double obs::PhaseTimings::*phase = nullptr;
  bool is_volatile = false;

  constexpr RoundColumn(const char* n, std::size_t RoundMetrics::*m) : name(n), count(m) {}
  constexpr RoundColumn(const char* n, double RoundMetrics::*m, bool vol = false)
      : name(n), real(m), is_volatile(vol) {}
  constexpr RoundColumn(const char* n, double obs::PhaseTimings::*m, bool vol)
      : name(n), phase(m), is_volatile(vol) {}

  /// Call f with this column's member of each metrics record, all of the
  /// same type (std::size_t or double); const-ness follows the records.
  template <typename F, typename... M>
  void visit(F&& f, M&... m) const {
    if (count != nullptr) {
      f((m.*count)...);
    } else if (phase != nullptr) {
      f((m.phases.*phase)...);
    } else {
      f((m.*real)...);
    }
  }
};

inline constexpr bool kVolatile = true;

/// Every per-round metric, in CSV column order. CSV, run ledger, run-state
/// files, result JSON and the determinism tests all iterate this table, so a
/// new metric is one row here plus its assignment in algos::run_with_metrics.
inline constexpr RoundColumn kRoundColumns[] = {
    {"round", &RoundMetrics::round},
    {"avg_loss", &RoundMetrics::avg_loss},
    {"test_accuracy", &RoundMetrics::test_accuracy},
    {"consensus", &RoundMetrics::consensus},
    {"messages", &RoundMetrics::messages},
    {"bytes", &RoundMetrics::bytes},
    {"dropped", &RoundMetrics::dropped},
    {"delayed", &RoundMetrics::delayed},
    {"offline", &RoundMetrics::offline},
    {"stale_reused", &RoundMetrics::stale_reused},
    {"fallbacks", &RoundMetrics::fallbacks},
    {"byz_active", &RoundMetrics::byz_active},
    {"corrupted", &RoundMetrics::corrupted},
    {"rejected", &RoundMetrics::rejected},
    {"reclipped", &RoundMetrics::reclipped},
    {"pi_attacker", &RoundMetrics::pi_attacker},
    {"pi_honest", &RoundMetrics::pi_honest},
    {"epsilon_spent", &RoundMetrics::epsilon_spent},
    {"shapley_evals", &RoundMetrics::shapley_evals},
    {"shapley_early_stops", &RoundMetrics::shapley_early_stops},
    {"retransmits", &RoundMetrics::retransmits},
    {"corrupt_detected", &RoundMetrics::corrupt_detected},
    {"dup_dropped", &RoundMetrics::dup_dropped},
    {"reordered", &RoundMetrics::reordered},
    {"crashes", &RoundMetrics::crashes},
    {"resyncs", &RoundMetrics::resyncs},
    {"elapsed_s", &RoundMetrics::elapsed_s, kVolatile},
    {"round_s", &RoundMetrics::round_s, kVolatile},
    {"local_grad_s", &obs::PhaseTimings::local_grad_s, kVolatile},
    {"crossgrad_s", &obs::PhaseTimings::crossgrad_s, kVolatile},
    {"shapley_s", &obs::PhaseTimings::shapley_s, kVolatile},
    {"aggregate_s", &obs::PhaseTimings::aggregate_s, kVolatile},
    {"gossip_s", &obs::PhaseTimings::gossip_s, kVolatile},
};

/// "" when the two series have the same length and agree exactly on every
/// deterministic column, else the first difference ("round 3 avg_loss: 0.25
/// vs 0.5"). The determinism tests compare runs with it.
std::string deterministic_mismatch(const std::vector<RoundMetrics>& a,
                                   const std::vector<RoundMetrics>& b);

/// `m`'s deterministic columns, or (volatile_columns) its wall-clock columns
/// plus "round", keyed by their CSV names: the run ledger's "round" and
/// "phase_timing" events and the result JSON's series rows.
json::Object round_json(const RoundMetrics& m, bool volatile_columns);

/// Mean over agents of ||x_i - mean_j x_j||.
double consensus_distance(const std::vector<std::vector<float>>& models);
double consensus_distance(const fleet::LazyMatrix& models);

/// Average of per-agent flat models.
std::vector<float> average_model(const std::vector<std::vector<float>>& models);
std::vector<float> average_model(const fleet::LazyMatrix& models);

/// Write a metrics series to CSV: a "run" column holding `run_label`, then
/// one column per kRoundColumns row.
void write_metrics_csv(const std::string& path, const std::string& run_label,
                       const std::vector<RoundMetrics>& series);

}  // namespace pdsl::sim
