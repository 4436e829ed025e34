#pragma once
// Workload definitions and the benchmark's own copy of the experiment runner:
// set-up through the library's public calls (the same steps, in the same
// order, as core::run_experiment) and a round loop that calls
// Algorithm::run_round and the per-round metric calls itself, timing each.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algos/common.hpp"
#include "core/experiment.hpp"
#include "data/dataset.hpp"
#include "dp/rdp.hpp"
#include "fleet/sparse_graph.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "nn/model.hpp"
#include "obs/phase.hpp"
#include "recovery/recovery.hpp"
#include "spans.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  pdsl::core::ExperimentConfig cfg;  ///< cfg.rounds = rounds of one training repetition
  double target_loss = 0.0;  ///< quality target: average loss at or below this
  std::size_t warmup_rounds = 2;  ///< excluded from round-time percentiles
  /// Distinct seeds one run trains (each one repetition) before it repeats
  /// any; the quality metrics are means over them, which damps the
  /// seed-to-seed spread of a single training run.
  std::size_t quality_seeds = 1;
};

/// The workload with its experiment seed moved to quality seed `j`.
Workload with_quality_seed(const Workload& w, std::size_t j);

/// Build a workload's config from the benchmark seed. Throws on unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Steady-clock seconds.
double wall_s();

/// Runs the benchmark's own fixed reference kernel (a small matrix product, a
/// streaming sum over 4 MiB and a log/sqrt chain) twice on each of `threads`
/// threads at once and returns the wall milliseconds of the slowest second,
/// warm pass: a round that waits at barriers runs at its slowest core's speed.
/// The host's speed drifts by 10-30% over minutes; the kernel's time, sampled
/// before each repetition's set-up and after its last round (never between
/// timed rounds, where it would evict the program's working set), measures
/// that drift so timings can be expressed at a fixed reference speed. It never
/// calls the library, so a change to the program cannot move it.
double calibration_ms(std::size_t threads);
/// Median reference-kernel time on the quiet host the benchmark was tuned on,
/// sampled outside the round loop (right after a round it reads ~25% slower).
inline constexpr double kCalibrationRefMs = 0.45;

/// Wall seconds of each set-up step (one construction), and its CPU seconds.
struct SetupTimes {
  double data_s = 0.0;       ///< dataset synthesis + train/validation/test split
  double partition_s = 0.0;  ///< heterogeneous partition
  double graph_s = 0.0;      ///< topology + mixing matrix
  double algo_s = 0.0;       ///< model template, sigma, make_algorithm, recovery
  [[nodiscard]] double total() const { return data_s + partition_s + graph_s + algo_s; }
};

/// Everything one run owns; Env points into it, so it never moves.
struct Built {
  pdsl::data::Dataset train, validation, test;
  std::vector<std::vector<std::size_t>> partition;
  std::optional<pdsl::graph::Topology> dense_topo;
  std::optional<pdsl::graph::MixingMatrix> dense_mixing;
  std::optional<pdsl::fleet::SparseGraph> sparse_topo;
  std::optional<pdsl::fleet::SparseMetropolis> sparse_mixing;
  std::optional<pdsl::nn::Model> model_template;
  pdsl::algos::Env env;
  std::unique_ptr<pdsl::algos::Algorithm> alg;
  std::optional<pdsl::recovery::RecoveryManager> recov;
};

/// Config -> algorithm ready for round 1, timed per step (and traced when
/// `spans` is non-null).
std::unique_ptr<Built> build(const pdsl::core::ExperimentConfig& cfg, SetupTimes& times,
                             SpanRecorder* spans);

/// Per-round record of the benchmark's loop.
struct RoundSample {
  double round_ms = 0.0;       ///< wall time of run_round
  double eval_loss_ms = 0.0;   ///< local_eval_loss over the metric agents + consensus
  double eval_test_ms = 0.0;   ///< sim::evaluate on its cadence (0 when not due)
  double loop_s = 0.0;         ///< loop wall time from the first round to this one's end
                               ///< (benchmark bookkeeping excluded)
  pdsl::obs::PhaseTimings phases;
  double avg_loss = 0.0;
  std::size_t active = 0;      ///< agents active this round
  std::size_t releases = 0;    ///< dp::privatize releases in run_round (grad.clip_total delta)
  std::size_t shapley_evals = 0;
  std::size_t shapley_perms = 0;
  std::size_t participants = 0;
  std::int64_t round_span = 0; ///< id of the run_round span (traced runs)
};

/// One training repetition: set-up + cfg.rounds rounds.
struct Repetition {
  SetupTimes setup;
  std::vector<RoundSample> rounds;
  std::optional<double> time_to_target_s;  ///< loop seconds until the target was met
  double loop_s = 0.0;                     ///< whole loop, metric calls included
  double calibration_ms = 0.0;             ///< median reference-kernel time around the repetition
  std::size_t samples = 0;                 ///< training examples consumed
  double resident_mb = 0.0;                ///< highest RSS sampled between rounds
  // Deterministic outputs (compared bit-for-bit across repetitions).
  double final_loss = 0.0;
  double final_acc = 0.0;
  double final_test_loss = 0.0;     ///< test-set loss at the final evaluation
  double epsilon_spent = 0.0;
  std::size_t messages = 0;         ///< logical sends attempted
  std::size_t bytes = 0;            ///< payload bytes (Network::bytes_sent)
  std::size_t wire_messages = 0;    ///< frames on the wire, retransmits and duplicates included
  std::size_t wire_bytes = 0;
  std::size_t dropped = 0;          ///< never delivered (drops + retry-exhausted)
  std::size_t retransmits = 0;
  std::size_t corruptions_detected = 0;
  std::size_t retry_exhausted = 0;
  std::size_t crashes = 0;
  std::size_t resyncs = 0;
  std::size_t workers_peak = 0;
  std::size_t models_materialized = 0;
  std::size_t nonfinite_rounds = 0;
  std::uint64_t loss_hash = 0;      ///< FNV-1a over every round's avg_loss bits
  /// Bytes on the wire: frames when the transport encodes, payload bytes otherwise.
  [[nodiscard]] std::size_t comm_bytes() const {
    return wire_messages > 0 ? wire_bytes : bytes;
  }
};

/// Drive `b` for cfg.rounds rounds the way run_with_metrics does, timing each
/// call. With `spans`, every round gets a run_round span (library phase spans
/// are imported beneath it by the caller) and metric-call spans.
void drive(Built& b, const Workload& w, Repetition& rep, SpanRecorder* spans);

}  // namespace perfbench
