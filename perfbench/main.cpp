// pdsl_perfbench: the benchmark's measuring binary. One invocation = one run of
// one workload at one seed. run.py builds it and calls it; see README.md.
//
//   pdsl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Prints one JSON report on stdout (result, fingerprint, checks and, for timed
// runs, the unscaled wall-clock figures); progress goes to stderr. Exit 0 =
// ran (check "correct" in the report), 2 = usage or runtime error.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/experiment.hpp"
#include "kernels/backend.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace json = pdsl::json;

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Interquartile mean: the mean of the middle half. Per-seed figures of a
/// training run have heavy tails (an odd seed learns slowly); this keeps the
/// efficiency of a mean without letting one seed move the result.
double iq_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(cut),
                                  v.end() - static_cast<std::ptrdiff_t>(cut)));
}

/// The percentile the tail metric reports: 0.9 when at least ten samples lie
/// beyond it, else the highest one that has ten beyond it.
double tail_q(std::size_t n) {
  if (n == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.9);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Checks {
  json::Array list;
  bool ok = true;
  void add(const std::string& name, bool pass, const std::string& detail = "") {
    json::Object c;
    c["name"] = name;
    c["ok"] = pass;
    if (!detail.empty()) c["detail"] = detail;
    list.push_back(json::Value(std::move(c)));
    ok = ok && pass;
    if (!pass) std::cerr << "CHECK FAILED: " << name << " " << detail << "\n";
  }
};

json::Object fingerprint(const Workload& w) {
  json::Object f;
  f["build_type"] = PERFBENCH_BUILD_TYPE;
  // The benchmark always builds the library's default (non-native) configuration.
  f["pdsl_native"] = false;
  f["compiler"] = "gcc " __VERSION__;
  f["cores"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  f["kernel_backend"] = pdsl::kernels::backend_name(pdsl::kernels::backend());
  f["threads"] = w.cfg.threads;
  json::Array isa;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) isa.push_back("sse4.2");
  if (__builtin_cpu_supports("avx")) isa.push_back("avx");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("fma")) isa.push_back("fma");
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
  f["cpu_isa"] = json::Value(std::move(isa));
  json::Array compiled;
#ifdef __AVX2__
  compiled.push_back("avx2");
#endif
#ifdef __FMA__
  compiled.push_back("fma");
#endif
#ifdef __AVX512F__
  compiled.push_back("avx512f");
#endif
  compiled.push_back("sse2");
  f["compiled_isa"] = json::Value(std::move(compiled));
  cpu_set_t set;
  CPU_ZERO(&set);
  json::Array aff;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) aff.push_back(c);
    }
  }
  f["cpu_affinity"] = json::Value(std::move(aff));
  return f;
}

json::Object metric(double value, const std::string& unit, std::size_t samples = 0) {
  json::Object m;
  m["value"] = value;
  m["unit"] = unit;
  if (samples > 0) m["samples"] = samples;
  return m;
}

/// Output checks shared by both modes. reps[k] trained quality seed
/// k % quality: every repeat of a seed must be bit-identical to its first
/// repetition, and the first repetition must match core::run_experiment on
/// the same config. Loss must stay finite; the transport must balance.
void check_outputs(const Workload& w, std::size_t quality, const std::vector<Repetition>& reps,
                   Checks& checks) {
  std::size_t repeats = 0;
  bool same = true;
  for (std::size_t k = quality; k < reps.size(); ++k) {
    const Repetition& r = reps[k];
    const Repetition& r0 = reps[k % quality];
    same = same && same_bits(r.final_loss, r0.final_loss) &&
           same_bits(r.final_acc, r0.final_acc) && same_bits(r.epsilon_spent, r0.epsilon_spent) &&
           same_bits(r.final_test_loss, r0.final_test_loss) &&
           r.loss_hash == r0.loss_hash && r.messages == r0.messages && r.bytes == r0.bytes &&
           r.wire_messages == r0.wire_messages && r.wire_bytes == r0.wire_bytes &&
           r.dropped == r0.dropped && r.retransmits == r0.retransmits && r.crashes == r0.crashes;
    ++repeats;
  }
  checks.add("repeats_bit_identical", same, std::to_string(repeats) + " repeats");
  const Repetition& r0 = reps.front();
  const pdsl::core::ExperimentResult ref = pdsl::core::run_experiment(with_quality_seed(w, 0).cfg);
  const bool match = same_bits(ref.final_loss, r0.final_loss) &&
                     same_bits(ref.final_accuracy, r0.final_acc) &&
                     same_bits(ref.epsilon_spent, r0.epsilon_spent) &&
                     ref.bytes == r0.bytes && ref.messages == r0.messages &&
                     ref.wire_bytes == r0.wire_bytes && ref.retransmits == r0.retransmits &&
                     ref.dropped == r0.dropped && ref.crashes == r0.crashes;
  checks.add("matches_run_experiment", match,
             "final_loss " + std::to_string(r0.final_loss) + " vs " +
                 std::to_string(ref.final_loss) + ", bytes " + std::to_string(r0.bytes) +
                 " vs " + std::to_string(ref.bytes));
  bool finite = true;
  bool balanced = true;
  bool crashed = true;
  for (const auto& r : reps) {
    finite = finite && r.nonfinite_rounds == 0 && std::isfinite(r.final_loss);
    balanced = balanced && r.corruptions_detected == r.retransmits + r.retry_exhausted;
    // A crashed agent resyncs only when an active neighbour answers, so under
    // sampled participation resyncs can trail crashes.
    crashed = crashed && r.crashes > 0 && r.resyncs <= r.crashes;
  }
  checks.add("loss_finite", finite);
  if (w.cfg.channel.any()) {
    checks.add("corruptions_eq_retransmits_plus_exhausted", balanced);
    checks.add("transport_active", r0.corruptions_detected > 0 && r0.wire_messages > 0);
  }
  if (w.cfg.crash.any()) checks.add("crashes_injected_and_resyncs_bounded", crashed);
}

/// Failed operations over attempted ones: messages (lost = never
/// delivered), rounds (non-finite loss) and repetitions (target missed).
void count_ops(const std::vector<Repetition>& reps, std::size_t& attempted, std::size_t& failed) {
  attempted = 0;
  failed = 0;
  for (const auto& r : reps) {
    attempted += r.messages + r.rounds.size() + 1;
    failed += r.dropped + r.nonfinite_rounds + (r.time_to_target_s ? 0 : 1);
  }
}

/// Per-round wall times after warm-up, scaled by `scale`.
std::vector<double> round_times(const Workload& w, const Repetition& r, double scale = 1.0) {
  std::vector<double> v;
  for (std::size_t k = w.warmup_rounds; k < r.rounds.size(); ++k) {
    v.push_back(scale * r.rounds[k].round_ms);
  }
  return v;
}

/// Factor that takes a wall time measured while the reference kernel ran in
/// `calibration_ms` to the reference speed.
double to_reference(double calibration_ms) { return kCalibrationRefMs / calibration_ms; }

/// Timing figures of a set of repetitions, in wall time or, with
/// `normalized`, in reference-speed time (each repetition scaled by its own
/// reference-kernel samples).
struct TimingSummary {
  double round_p50 = 0.0, round_tail = 0.0, tail_quantile = 0.0;
  double samples_per_s = 0.0, to_target_s = 0.0;
  std::size_t rounds = 0, target_samples = 0;
};

/// reps[k] trained quality seed k % quality. Time to target: per seed the
/// median of its repetitions, then the interquartile mean over seeds; a
/// repetition that misses the target counts its whole loop (and is a failed
/// operation).
TimingSummary summarize(const Workload& w, std::size_t quality,
                        const std::vector<Repetition>& reps, bool normalized) {
  TimingSummary t;
  std::vector<double> rounds, throughput, ttt;
  const auto scale = [&](const Repetition& r) {
    return normalized ? to_reference(r.calibration_ms) : 1.0;
  };
  // Round percentiles: per block of consecutive repetitions holding at least
  // kBlockRounds rounds (so ten or more lie beyond p90), then the median over
  // blocks. A slow host phase then spoils a block, not the run's tail.
  constexpr std::size_t kBlockRounds = 100;
  std::vector<double> block, block_p50, block_tail;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const Repetition& r = reps[k];
    const auto v = round_times(w, r, scale(r));
    rounds.insert(rounds.end(), v.begin(), v.end());
    block.insert(block.end(), v.begin(), v.end());
    if (block.size() >= kBlockRounds) {
      block_p50.push_back(median(block));
      block_tail.push_back(quantile(block, 0.9));
      block.clear();
    }
    throughput.push_back(static_cast<double>(r.samples) / (scale(r) * r.loop_s));
  }
  for (std::size_t j = 0; j < quality; ++j) {
    std::vector<double> per_seed;
    for (std::size_t k = j; k < reps.size(); k += quality) {
      const Repetition& r = reps[k];
      per_seed.push_back(scale(r) * r.time_to_target_s.value_or(r.loop_s));
    }
    ttt.push_back(median(per_seed));
    t.target_samples += per_seed.size();
  }
  t.rounds = rounds.size();
  if (block_p50.empty()) {  // under kBlockRounds rounds in all
    t.tail_quantile = tail_q(rounds.size());
    t.round_p50 = median(rounds);
    t.round_tail = quantile(rounds, t.tail_quantile);
  } else {
    t.tail_quantile = 0.9;
    t.round_p50 = median(block_p50);
    t.round_tail = median(block_tail);
  }
  t.samples_per_s = median(throughput);
  t.to_target_s = iq_mean(ttt);
  return t;
}

json::Object run_timed(const Workload& w, double seconds, Checks& checks, json::Object& wall) {
  // The reference kernel runs only outside the timed loop: a few samples
  // before each set-up and after each repetition's last round.
  constexpr std::size_t kCalibrationSamples = 5;
  const auto calibrate = [&](std::vector<double>& out) {
    for (std::size_t k = 0; k < kCalibrationSamples; ++k) {
      out.push_back(calibration_ms(w.cfg.threads));
    }
    return median(out);
  };
  // Set-up is timed on its own before the loop (and once more per
  // repetition), so its median rests on enough constructions.
  constexpr std::size_t kStandaloneSetups = 5;
  std::vector<double> setup_s, setup_ref_s;
  for (std::size_t k = 0; k < kStandaloneSetups; ++k) {
    SetupTimes st;
    std::vector<double> calib;
    const double c = calibrate(calib);
    auto b = build(w.cfg, st, nullptr);
    setup_s.push_back(st.total());
    setup_ref_s.push_back(st.total() * to_reference(c));
  }
  // Train each quality seed once, then keep cycling through them until the
  // time is up; the repeats feed the timing samples and the repeat check.
  const std::size_t quality = w.quality_seeds;
  std::vector<Repetition> reps;
  const double start = wall_s();
  // After the quality block, start a repetition only if it should end in time.
  double last_s = 0.0;
  while (reps.size() < quality || wall_s() - start + last_s <= seconds) {
    const double rep_start = wall_s();
    const Workload sw = with_quality_seed(w, reps.size() % quality);
    Repetition rep;
    std::vector<double> calib;
    const double c = calibrate(calib);
    auto b = build(sw.cfg, rep.setup, nullptr);
    drive(*b, sw, rep, nullptr);
    rep.calibration_ms = calibrate(calib);
    setup_s.push_back(rep.setup.total());
    setup_ref_s.push_back(rep.setup.total() * to_reference(c));
    std::cerr << w.name << ": repetition " << reps.size() + 1 << " (seed "
              << reps.size() % quality << ") loop " << rep.loop_s << " s, final loss "
              << rep.final_loss << "\n";
    reps.push_back(std::move(rep));
    last_s = wall_s() - rep_start;
  }

  // Quality and traffic over the quality seeds (deterministic per benchmark
  // seed): interquartile means of test loss and accuracy, plain means of the
  // traffic figures.
  std::vector<double> final_loss, final_acc;
  double comm_mb = 0.0;
  double messages = 0.0, delivered = 0.0;
  for (std::size_t j = 0; j < quality; ++j) {
    const Repetition& r = reps[j];
    final_loss.push_back(r.final_test_loss);
    final_acc.push_back(r.final_acc);
    comm_mb += static_cast<double>(r.comm_bytes()) / static_cast<double>(w.cfg.rounds) / 1e6 /
               static_cast<double>(quality);
    messages += static_cast<double>(r.messages);
    delivered += static_cast<double>(r.messages - r.dropped);
  }
  const TimingSummary ref = summarize(w, quality, reps, true);
  json::Object m;
  m["setup_s"] = metric(median(setup_ref_s), "s", setup_ref_s.size());
  m["round_ms_p50"] = metric(ref.round_p50, "ms", ref.rounds);
  json::Object p90 = metric(ref.round_tail, "ms", ref.rounds);
  p90["quantile"] = ref.tail_quantile;
  m["round_ms_p90"] = std::move(p90);
  m["samples_per_s"] = metric(ref.samples_per_s, "1/s", reps.size());
  m["time_to_target_s"] = metric(ref.to_target_s, "s", ref.target_samples);
  m["final_test_loss"] = metric(iq_mean(final_loss), "loss", quality);
  m["final_test_acc"] = metric(iq_mean(final_acc), "fraction", quality);
  m["comm_mb_per_round"] = metric(comm_mb, "MB", quality);
  m["msgs_delivered_frac"] = metric(delivered / messages, "fraction", quality);

  // The same figures on the wall clock, reported beside the result.
  const TimingSummary wt = summarize(w, quality, reps, false);
  wall["setup_s"] = median(setup_s);
  wall["round_ms_p50"] = wt.round_p50;
  wall["round_ms_p90"] = wt.round_tail;
  wall["samples_per_s"] = wt.samples_per_s;
  wall["time_to_target_s"] = wt.to_target_s;
  std::vector<double> calib;
  for (const auto& r : reps) calib.push_back(r.calibration_ms);
  wall["calibration_ms"] = median(calib);

  check_outputs(w, quality, reps, checks);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  count_ops(reps, attempted, failed);
  json::Object res;
  res["correct"] = checks.ok;
  res["attempted"] = attempted;
  res["failed"] = failed;
  res["metrics"] = json::Value(std::move(m));
  return res;
}

/// Import the library's own phase spans (recorded when the global recorder
/// is on) beneath the run_round span that contains each of them.
void import_phase_spans(SpanRecorder& spans) {
  const json::Value lib = pdsl::obs::TraceRecorder::global().to_json();
  const auto main_tid = static_cast<std::int64_t>(pdsl::obs::TraceRecorder::thread_id());
  std::vector<Span> round_spans;
  for (const auto& s : spans.spans()) {
    if (s.name == "run_round") round_spans.push_back(s);
  }
  for (const auto& ev : lib.at("traceEvents").as_array()) {
    if (ev.at("cat").as_string() != "phase" || ev.at("tid").as_int() != main_tid) continue;
    const double ts = ev.at("ts").as_number();
    for (const auto& r : round_spans) {
      if (ts >= r.ts_us && ts <= r.ts_us + r.dur_us) {
        Span p;
        p.name = ev.at("name").as_string();
        p.cat = "phase";
        p.parent = r.id;
        p.round = r.round;
        p.ts_us = ts;
        p.dur_us = ev.at("dur").as_number();
        spans.add(std::move(p));
        break;
      }
    }
  }
}

json::Object run_traced(const Workload& w, const std::string& trace_out, Checks& checks) {
  // Repetitions 0 and 2 run untraced around the traced repetition 1: the
  // baseline for the tracing overhead.
  std::vector<Repetition> reps(3);
  const auto untraced_rep = [&](Repetition& rep) {
    auto ub = build(w.cfg, rep.setup, nullptr);
    drive(*ub, w, rep, nullptr);
  };
  untraced_rep(reps[0]);
  SpanRecorder spans;
  auto& lib = pdsl::obs::TraceRecorder::global();
  lib.clear();
  lib.enable(true);
  std::unique_ptr<Built> b;
  {
    ScopedSpan s(&spans, "setup", "setup");
    b = build(w.cfg, reps[1].setup, &spans);
  }
  drive(*b, w, reps[1], &spans);
  lib.enable(false);
  import_phase_spans(spans);
  untraced_rep(reps[2]);
  std::map<std::string, double> probes;
  {
    ScopedSpan s(&spans, "probes", "probe");
    probes = run_probes(*b, w, &spans);
  }
  const Repetition& tr = reps[1];

  // Per-round phase breakdown from the spans; the round's self time (wall
  // minus its phase children) is the unattributed remainder.
  std::vector<double> phase_ms[5], unattributed, round_ms;
  static const char* kPhases[5] = {"local_grad", "crossgrad", "shapley", "aggregate", "gossip"};
  bool spans_ok = true;
  for (std::size_t k = w.warmup_rounds; k < tr.rounds.size(); ++k) {
    const RoundSample& r = tr.rounds[k];
    const Span* round = nullptr;
    for (const auto& s : spans.spans()) {
      if (s.id == r.round_span) round = &s;
    }
    if (round == nullptr) {
      spans_ok = false;
      continue;
    }
    double covered = 0.0;
    double per[5] = {0, 0, 0, 0, 0};
    for (const Span* c : spans.children(r.round_span)) {
      for (int p = 0; p < 5; ++p) {
        if (c->name == kPhases[p]) per[p] += c->dur_us / 1e3;
      }
      covered += c->dur_us / 1e3;
      // Every phase span ends inside its round.
      if (c->ts_us + c->dur_us > round->ts_us + round->dur_us + 1.0) spans_ok = false;
    }
    const double self_ms = spans.self_us(r.round_span) / 1e3;
    for (int p = 0; p < 5; ++p) phase_ms[p].push_back(per[p]);
    unattributed.push_back(self_ms);
    round_ms.push_back(round->dur_us / 1e3);
    // The imported spans must agree with the library's phase accumulator, and
    // they must not cover more than the round.
    const double acc_ms = 1e3 * r.phases.total();
    if (std::abs(covered - acc_ms) > 0.02 * acc_ms + 0.05 || self_ms < -1e-3) spans_ok = false;
  }
  checks.add("phase_spans_match_accumulator_within_round", spans_ok && !round_ms.empty());
  spans.write_chrome(trace_out);

  check_outputs(w, 1, reps, checks);

  auto untraced = round_times(w, reps[0]);
  const auto after = round_times(w, reps[2]);
  untraced.insert(untraced.end(), after.begin(), after.end());
  const auto traced = round_times(w, tr);
  std::vector<double> eval_loss, eval_test, releases, evals, perms, participants;
  for (std::size_t k = w.warmup_rounds; k < tr.rounds.size(); ++k) {
    const RoundSample& r = tr.rounds[k];
    eval_loss.push_back(r.eval_loss_ms);
    if (r.eval_test_ms > 0.0) eval_test.push_back(r.eval_test_ms);
    releases.push_back(static_cast<double>(r.releases));
    evals.push_back(static_cast<double>(r.shapley_evals));
    perms.push_back(static_cast<double>(r.shapley_perms));
    participants.push_back(static_cast<double>(r.participants));
  }
  const double rounds = static_cast<double>(tr.rounds.size());
  const std::size_t d = b->model_template->num_params();

  json::Object m;
  m["core.round_ms"] = metric(mean(round_ms), "ms", round_ms.size());
  for (int p = 0; p < 5; ++p) {
    m[std::string("core.") + kPhases[p] + "_ms"] = metric(mean(phase_ms[p]), "ms");
  }
  m["core.unattributed_ms"] = metric(mean(unattributed), "ms");
  m["dp.releases_per_round"] = metric(mean(releases), "count");
  m["dp.noise_ns_per_draw"] = metric(probes["dp.noise_ns_per_draw"], "ns");
  m["dp.noise_ms_per_round"] =
      metric(mean(releases) * static_cast<double>(d) * probes["dp.noise_ns_per_draw"] / 1e6,
             "ms");
  m["dp.clip_us"] = metric(probes["dp.clip_us"], "us");
  m["dp.epsilon_spent"] = metric(tr.epsilon_spent, "epsilon");
  m["nn.loss_and_backward_ms"] = metric(probes["nn.loss_and_backward_ms"], "ms");
  m["kernels.gemm_gflops"] = metric(probes["kernels.gemm_gflops"], "GFLOP/s");
  m["kernels.conv_fwd_bwd_ms"] = metric(probes["kernels.conv_fwd_bwd_ms"], "ms");
  const double evals_per_round = mean(evals);
  m["shapley.evals_per_round"] = metric(evals_per_round, "count");
  m["shapley.perms_per_round"] = metric(mean(perms), "count");
  m["shapley.us_per_eval"] =
      metric(evals_per_round > 0.0 ? 1e3 * mean(phase_ms[2]) / evals_per_round : 0.0, "us");
  m["shapley.linear_score_us"] = metric(probes["shapley.linear_score_us"], "us");
  m["shapley.sequential_score_us"] = metric(probes["shapley.sequential_score_us"], "us");
  m["net.msgs_per_round"] = metric(static_cast<double>(tr.messages) / rounds, "count");
  m["net.wire_frames_per_round"] =
      metric(static_cast<double>(tr.wire_messages) / rounds, "count");
  m["net.retransmits_per_round"] = metric(static_cast<double>(tr.retransmits) / rounds, "count");
  m["net.delivery_ratio"] =
      metric(static_cast<double>(tr.messages - tr.dropped) / static_cast<double>(tr.messages),
             "fraction");
  m["net.wire_roundtrip_us"] = metric(probes["net.wire_roundtrip_us"], "us");
  m["net.send_recv_us"] = metric(probes["net.send_recv_us"], "us");
  m["fleet.participants"] = metric(mean(participants), "count");
  m["fleet.workers_peak"] = metric(static_cast<double>(tr.workers_peak), "count");
  m["fleet.models_materialized"] = metric(static_cast<double>(tr.models_materialized), "count");
  m["recovery.crashes"] = metric(static_cast<double>(tr.crashes), "count");
  m["recovery.resyncs"] = metric(static_cast<double>(tr.resyncs), "count");
  m["recovery.snapshot_ms"] = metric(probes["recovery.snapshot_ms"], "ms");
  m["runtime.parallel_for_us"] = metric(probes["runtime.parallel_for_us"], "us");
  m["eval.loss_ms_per_round"] = metric(mean(eval_loss), "ms");
  m["eval.test_ms"] = metric(mean(eval_test), "ms", eval_test.size());
  std::vector<double> sd, sp, sg, sa;
  for (const auto& r : reps) {
    sd.push_back(r.setup.data_s);
    sp.push_back(r.setup.partition_s);
    sg.push_back(r.setup.graph_s);
    sa.push_back(r.setup.algo_s);
  }
  m["setup.data_s"] = metric(median(sd), "s");
  m["setup.partition_s"] = metric(median(sp), "s");
  m["setup.graph_s"] = metric(median(sg), "s");
  m["setup.algo_s"] = metric(median(sa), "s");
  // Wall-clock counterparts of the gated CPU-time metrics, from the two
  // untraced repetitions.
  const TimingSummary wt = summarize(w, 1, {reps[0], reps[2]}, false);
  m["wall.setup_s"] = metric(0.5 * (reps[0].setup.total() + reps[2].setup.total()), "s");
  m["wall.round_ms_p50"] = metric(wt.round_p50, "ms", wt.rounds);
  m["wall.round_ms_p90"] = metric(wt.round_tail, "ms", wt.rounds);
  m["wall.samples_per_s"] = metric(wt.samples_per_s, "1/s");
  m["wall.time_to_target_s"] = metric(wt.to_target_s, "s");
  m["mem.peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  m["mem.rss_high_mb"] = metric(tr.resident_mb, "MB");
  m["obs.trace_overhead_pct"] = metric(100.0 * (median(traced) / median(untraced) - 1.0), "%");

  std::size_t attempted = 0;
  std::size_t failed = 0;
  count_ops(reps, attempted, failed);
  json::Object res;
  res["correct"] = checks.ok;
  res["attempted"] = attempted;
  res["failed"] = failed;
  res["metrics"] = json::Value(std::move(m));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "usage: pdsl_perfbench --workload NAME --seed N --seconds S --trace 0|1\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    const std::string name = args.at("workload");
    const auto seed = static_cast<std::uint64_t>(std::stoull(args.at("seed")));
    const double seconds = std::stod(args.at("seconds"));
    const bool trace = args.count("trace") != 0 && args.at("trace") == "1";
    const Workload w = make_workload(name, seed);
    Checks checks;
    json::Object report;
    report["fingerprint"] = json::Value(fingerprint(w));
    if (trace) {
      const std::string out = args.count("trace-out") != 0 ? args.at("trace-out")
                                                           : name + ".trace.json";
      report["result"] = json::Value(run_traced(w, out, checks));
      report["trace_file"] = out;
    } else {
      json::Object wall;
      report["result"] = json::Value(run_timed(w, seconds, checks, wall));
      report["wall_clock"] = json::Value(std::move(wall));
    }
    report["checks"] = json::Value(std::move(checks.list));
    std::cout << json::Value(std::move(report)).dump() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "pdsl_perfbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
