// S-RECOV: unreliable-channel transport (corruption/NACK/retransmit/backoff,
// duplication dedup, reordering) and crash/restart recovery (CrashPlan purity,
// RecoveryManager snapshot + neighbor resync, snapshot files), plus the
// kill-and-resume contract: a run checkpointed mid-flight and resumed must be
// bit-identical to the uninterrupted run at any --threads width.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "graph/topology.hpp"
#include "io/checkpoint.hpp"
#include "io/codec.hpp"
#include "obs/ledger.hpp"
#include "recovery/recovery.hpp"
#include "recovery/run_state.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

using namespace pdsl;
using namespace pdsl::sim;

namespace {

std::vector<float> payload_of(float base, std::size_t n = 8) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<float>(i);
  return v;
}

Network make_net(std::size_t agents, ChannelPlan channel, FaultPlan faults = {}) {
  Rng rng(5);
  const auto topo = graph::Topology::make(graph::TopologyKind::kFullyConnected, agents, &rng);
  NetworkOptions opts;
  opts.seed = 77;
  opts.faults = std::move(faults);
  opts.channel = std::move(channel);
  return Network(topo, opts);
}

core::ExperimentConfig tiny_cfg() {
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "gaussian";
  cfg.model = "logistic";
  cfg.topology = "ring";
  cfg.agents = 5;
  cfg.rounds = 6;
  cfg.train_samples = 250;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 3;  // gaussian: dim = 9
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "none";
  cfg.metrics.test_subsample = 40;
  cfg.seed = 11;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan semantics
// ---------------------------------------------------------------------------

TEST(ChannelPlanTest, ValidateRejectsOutOfRangeKnobs) {
  ChannelPlan p;
  p.corrupt_prob = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChannelPlan{};
  p.duplicate_prob = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChannelPlan{};
  p.reorder_prob = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChannelPlan{};
  p.corrupt_prob = 0.3;
  p.duplicate_prob = 0.999;
  p.reorder_prob = 0.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(ChannelPlanTest, JsonRoundTripPreservesEveryKnob) {
  ChannelPlan p;
  p.corrupt_prob = 0.12;
  p.duplicate_prob = 0.05;
  p.reorder_prob = 0.07;
  p.max_retries = 6;
  p.seed = 42;
  const auto back = channel_plan_from_json(channel_plan_to_json(p));
  EXPECT_EQ(back.corrupt_prob, p.corrupt_prob);
  EXPECT_EQ(back.duplicate_prob, p.duplicate_prob);
  EXPECT_EQ(back.reorder_prob, p.reorder_prob);
  EXPECT_EQ(back.max_retries, p.max_retries);
  EXPECT_EQ(back.seed, p.seed);

  auto v = channel_plan_to_json(p);
  v.as_object()["warp_speed"] = 1.0;
  EXPECT_THROW(channel_plan_from_json(v), std::invalid_argument);
}

TEST(ChannelPlanTest, DecisionsArePureFunctionsOfIdentity) {
  ChannelPlan p;
  p.corrupt_prob = 0.3;
  p.duplicate_prob = 0.3;
  p.reorder_prob = 0.3;
  p.seed = 99;
  // Same identity -> same answer, every time and in any query order.
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(p.corrupt(0, 1, 7, 0), p.corrupt(0, 1, 7, 0));
    EXPECT_EQ(p.duplicate(2, 3, 11), p.duplicate(2, 3, 11));
    EXPECT_EQ(p.reorder(1, 0, 5), p.reorder(1, 0, 5));
  }
  // The attempt number is mixed into the corruption hash, so a retransmission
  // re-rolls: over many messages the two attempt streams must differ.
  bool attempt_streams_differ = false;
  std::size_t hits = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    if (p.corrupt(0, 1, k, 0) != p.corrupt(0, 1, k, 1)) attempt_streams_differ = true;
    if (p.corrupt(0, 1, k, 0)) ++hits;
  }
  EXPECT_TRUE(attempt_streams_differ);
  // Empirical rate within a loose band of the knob.
  EXPECT_NEAR(static_cast<double>(hits) / 2000.0, 0.3, 0.05);
}

TEST(ChannelPlanTest, BackoffScheduleIsRoundGranularAndCapped) {
  EXPECT_EQ(ChannelPlan::backoff_for(0), 0u);
  EXPECT_EQ(ChannelPlan::backoff_for(1), 0u);
  EXPECT_EQ(ChannelPlan::backoff_for(2), 1u);
  EXPECT_EQ(ChannelPlan::backoff_for(3), 2u);
  EXPECT_EQ(ChannelPlan::backoff_for(4), 4u);
  EXPECT_EQ(ChannelPlan::backoff_for(5), 8u);
  EXPECT_EQ(ChannelPlan::backoff_for(6), 8u);   // capped
  EXPECT_EQ(ChannelPlan::backoff_for(50), 8u);  // still capped
}

TEST(CrashPlanTest, ValidateRejectsBadKnobs) {
  CrashPlan p;
  p.crash_prob = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = CrashPlan{};
  p.crash_prob = 0.1;
  p.snapshot_every = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = CrashPlan{};
  p.crash_prob = 0.1;
  p.snapshot_every = 3;
  EXPECT_NO_THROW(p.validate());
}

TEST(CrashPlanTest, JsonRoundTripAndPurity) {
  CrashPlan p;
  p.crash_prob = 0.2;
  p.snapshot_every = 4;
  p.seed = 17;
  const auto back = crash_plan_from_json(crash_plan_to_json(p));
  EXPECT_EQ(back.crash_prob, p.crash_prob);
  EXPECT_EQ(back.snapshot_every, p.snapshot_every);
  EXPECT_EQ(back.seed, p.seed);

  std::size_t crashed = 0;
  for (std::size_t agent = 0; agent < 10; ++agent) {
    for (std::size_t t = 1; t <= 50; ++t) {
      EXPECT_EQ(p.crashes(agent, t), p.crashes(agent, t));
      if (p.crashes(agent, t)) ++crashed;
    }
  }
  EXPECT_NEAR(static_cast<double>(crashed) / 500.0, 0.2, 0.08);

  auto v = crash_plan_to_json(p);
  v.as_object()["blast_radius"] = 2.0;
  EXPECT_THROW(crash_plan_from_json(v), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transport: corruption / retransmit / dedup / reorder
// ---------------------------------------------------------------------------

TEST(TransportTest, RetransmitRecoversEveryCorruptedFrame) {
  ChannelPlan ch;
  ch.corrupt_prob = 0.5;
  ch.max_retries = 16;  // 0.5^17 residual loss: effectively never exhausts
  ch.seed = 101;
  auto net = make_net(2, ch);
  net.begin_round(1);

  const std::size_t kMsgs = 80;
  std::vector<float> late_payloads;
  std::size_t delivered_now = 0;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "t@" + std::to_string(k), payload_of(static_cast<float>(k))));
  }
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const auto got = net.receive(1, 0, "t@" + std::to_string(k));
    if (got) {
      ++delivered_now;
      // Delivered payloads survive the corrupt/retransmit loop bit-intact.
      EXPECT_EQ(*got, payload_of(static_cast<float>(k)));
    }
  }
  // Backed-off retransmissions surface in later rounds; collect them all.
  std::size_t delivered_late = net.in_flight();
  for (std::size_t t = 2; t <= 12 && net.in_flight() > 0; ++t) {
    for (const auto& late : net.begin_round(t)) {
      EXPECT_EQ(late.payload, payload_of(late.payload[0]));
    }
  }
  EXPECT_EQ(delivered_now + delivered_late, kMsgs);
  EXPECT_EQ(net.retry_exhausted(), 0u);
  EXPECT_GT(net.retransmits(), 0u);
  // Exactly-one-counter invariant: every checksum-caught flip either triggered
  // one retransmission or (never, here) exhausted the budget.
  EXPECT_EQ(net.corruptions_detected(), net.retransmits() + net.retry_exhausted());
}

TEST(TransportTest, DetectedCorruptionNeverReachesTheMailbox) {
  ChannelPlan ch;
  ch.corrupt_prob = 0.9;
  ch.max_retries = 0;  // no budget: every detected flip is a terminal loss
  ch.seed = 202;
  auto net = make_net(2, ch);
  net.begin_round(1);

  const std::size_t kMsgs = 60;
  std::size_t delivered = 0;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const std::string tag = "u@" + std::to_string(k);
    const bool ok = net.send(0, 1, tag, payload_of(1.0f));
    if (!ok) {
      // A detected corruption with no retry budget must never surface.
      EXPECT_FALSE(net.has_message(1, 0, tag));
      EXPECT_FALSE(net.receive(1, 0, tag).has_value());
    } else if (net.has_message(1, 0, tag)) {
      EXPECT_EQ(*net.receive(1, 0, tag), payload_of(1.0f));
      ++delivered;
    }
  }
  EXPECT_GT(net.corruptions_detected(), 0u);
  EXPECT_EQ(net.retransmits(), 0u);
  // With zero retries every detection is an exhaustion, counted exactly once.
  EXPECT_EQ(net.corruptions_detected(), net.retry_exhausted());
  EXPECT_EQ(net.retry_exhausted(), net.messages_dropped());
  EXPECT_EQ(delivered + net.in_flight() + net.messages_dropped(), kMsgs);
}

TEST(TransportTest, DuplicatesAreDeliveredExactlyOnce) {
  ChannelPlan ch;
  ch.duplicate_prob = 0.9;
  ch.seed = 303;
  auto net = make_net(2, ch);
  net.begin_round(1);

  const std::size_t kMsgs = 40;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "d@" + std::to_string(k), payload_of(2.0f)));
  }
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const std::string tag = "d@" + std::to_string(k);
    ASSERT_TRUE(net.receive(1, 0, tag).has_value()) << tag;
    // Exactly-once: the duplicate copy was deduped at the transport.
    EXPECT_FALSE(net.receive(1, 0, tag).has_value()) << tag;
  }
  EXPECT_GT(net.duplicates_dropped(), 0u);
  // The duplicate copies consumed wire frames beyond one per message.
  EXPECT_GT(net.wire_messages(), kMsgs);
}

TEST(TransportTest, ReorderingIsDeterministicAndJumpsTheQueue) {
  ChannelPlan ch;
  ch.reorder_prob = 0.5;
  ch.seed = 404;
  auto net = make_net(2, ch);
  net.begin_round(1);

  // All sends share one tag so they land in one mailbox deque; replay the
  // plan's pure reorder decisions to predict the exact delivery order.
  const std::size_t kMsgs = 16;
  std::deque<float> expected;
  const auto& plan = net.channel();  // seed-folded effective plan
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "r", {static_cast<float>(k)}));
    if (plan.reorder(0, 1, k)) {
      expected.push_front(static_cast<float>(k));
    } else {
      expected.push_back(static_cast<float>(k));
    }
  }
  std::vector<float> order;
  while (auto got = net.receive(1, 0, "r")) order.push_back((*got)[0]);
  ASSERT_EQ(order.size(), kMsgs);
  EXPECT_EQ(order, std::vector<float>(expected.begin(), expected.end()));
  EXPECT_GT(net.reorders(), 0u);
  EXPECT_NE(order.front(), 0.0f);  // at least one jump actually happened

  // Deterministic: an identical network replays the identical order.
  auto net2 = make_net(2, ch);
  net2.begin_round(1);
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net2.send(0, 1, "r", {static_cast<float>(k)}));
  }
  std::vector<float> order2;
  while (auto got = net2.receive(1, 0, "r")) order2.push_back((*got)[0]);
  EXPECT_EQ(order, order2);
}

TEST(TransportTest, BackoffDelaysLateRetransmissions) {
  // Find a message whose first two attempts are corrupted but whose third is
  // clean: attempt 2 carries backoff_for(2) = 1 round of delay, so the
  // payload must mature via begin_round instead of arriving immediately.
  ChannelPlan ch;
  ch.corrupt_prob = 0.6;
  ch.max_retries = 8;
  ch.seed = 505;
  auto net = make_net(2, ch);
  const auto& plan = net.channel();
  std::uint64_t target = static_cast<std::uint64_t>(-1);
  for (std::uint64_t k = 0; k < 512; ++k) {
    if (plan.corrupt(0, 1, k, 0) && plan.corrupt(0, 1, k, 1) && !plan.corrupt(0, 1, k, 2)) {
      target = k;
      break;
    }
  }
  ASSERT_NE(target, static_cast<std::uint64_t>(-1)) << "no suitable edge index in 512 tries";

  net.begin_round(1);
  for (std::uint64_t k = 0; k <= target; ++k) {
    net.send(0, 1, "b@" + std::to_string(k), payload_of(9.0f));
  }
  const std::string tag = "b@" + std::to_string(target);
  EXPECT_FALSE(net.has_message(1, 0, tag));  // in flight, not lost
  EXPECT_GE(net.in_flight(), 1u);
  bool matured = false;
  for (std::size_t t = 2; t <= 3 && !matured; ++t) {
    for (const auto& late : net.begin_round(t)) {
      if (late.tag == tag) {
        EXPECT_EQ(late.payload, payload_of(9.0f));
        matured = true;
      }
    }
  }
  EXPECT_TRUE(matured);
}

// ---------------------------------------------------------------------------
// Crash / recovery end-to-end
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CrashedRunStaysFiniteAndIsBitIdentical) {
  auto cfg = tiny_cfg();
  cfg.crash.crash_prob = 0.15;
  cfg.crash.snapshot_every = 2;
  const auto a = core::run_experiment(cfg);
  EXPECT_GT(a.crashes, 0u) << "plan never fired; loosen the knobs";
  EXPECT_EQ(a.crashes, a.resyncs);  // ring: every agent has online neighbors here
  EXPECT_TRUE(std::isfinite(a.final_loss));

  const auto b = core::run_experiment(cfg);
  EXPECT_EQ(deterministic_mismatch(a.series, b.series), "") << "rerun";

  auto cfg4 = cfg;
  cfg4.threads = 4;
  const auto c = core::run_experiment(cfg4);
  EXPECT_EQ(deterministic_mismatch(a.series, c.series), "") << "threads 1 vs 4";
}

TEST(RecoveryTest, SnapshotFilesArePersistedAndLoadable) {
  const std::string dir = "/tmp/pdsl_recovery_snaps";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cfg = tiny_cfg();
  cfg.crash.crash_prob = 0.15;
  cfg.crash.snapshot_every = 2;
  cfg.recovery_dir = dir;
  const auto res = core::run_experiment(cfg);
  EXPECT_GT(res.crashes, 0u);
  for (std::size_t i = 0; i < cfg.agents; ++i) {
    const std::string path = dir + "/agent_" + std::to_string(i) + ".snap";
    io::ByteBuffer body;
    ASSERT_NO_THROW(body = io::load_blob(path, recovery::kSnapshotMagic, "test"))
        << path;
    io::ByteReader r(body, "snap-test");
    const auto round = r.read_u64("round");
    EXPECT_GT(round, 0u);
    const auto model = r.read_floats("model");
    EXPECT_EQ(model.size(), res.model_dim);
    for (float x : model) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(RecoveryTest, ChaosPlusRecoveryGate) {
  // The ISSUE acceptance gate: 10% corruption + dup/reorder + 10% crashes +
  // 5% drops simultaneously; the run must stay finite, keep learning, and be
  // bit-identical across reruns and thread widths.
  auto cfg = tiny_cfg();
  cfg.rounds = 8;
  cfg.channel.corrupt_prob = 0.10;
  cfg.channel.duplicate_prob = 0.05;
  cfg.channel.reorder_prob = 0.05;
  cfg.crash.crash_prob = 0.10;
  cfg.crash.snapshot_every = 3;
  cfg.faults.drop_prob = 0.05;
  const auto a = core::run_experiment(cfg);
  EXPECT_TRUE(std::isfinite(a.final_loss));
  // "Still learning" under chaos: the loss trajectory must head down.
  EXPECT_LT(a.series.back().avg_loss, a.series.front().avg_loss);
  EXPECT_GT(a.corruptions_detected, 0u);
  EXPECT_GT(a.retransmits, 0u);
  EXPECT_GT(a.duplicates_dropped, 0u);
  EXPECT_GT(a.crashes, 0u);

  const auto b = core::run_experiment(cfg);
  EXPECT_EQ(deterministic_mismatch(a.series, b.series), "") << "chaos rerun";
  auto cfg4 = cfg;
  cfg4.threads = 4;
  const auto c = core::run_experiment(cfg4);
  EXPECT_EQ(deterministic_mismatch(a.series, c.series), "") << "chaos threads 1 vs 4";
}

// ---------------------------------------------------------------------------
// Kill-and-resume
// ---------------------------------------------------------------------------

TEST(ResumeTest, KillAndResumeIsBitIdenticalToTheUninterruptedRun) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto base = tiny_cfg();
    base.rounds = 8;
    base.threads = threads;
    const auto uninterrupted = core::run_experiment(base);

    const std::string ck = "/tmp/pdsl_resume_t" + std::to_string(threads) + ".bin";
    std::remove(ck.c_str());
    auto first = base;
    first.checkpoint_every = 3;
    first.checkpoint_path = ck;
    const auto full = core::run_experiment(first);
    // The checkpointed run itself matches (checkpointing is observation-free).
    EXPECT_EQ(deterministic_mismatch(uninterrupted.series, full.series), "") << "checkpointed run";

    auto second = base;
    second.resume_from = ck;  // latest cursor on disk: round 6 of 8
    const auto resumed = core::run_experiment(second);
    EXPECT_EQ(resumed.resumed_from_round, 6u);
    EXPECT_EQ(deterministic_mismatch(uninterrupted.series, resumed.series), "") << "resumed run";
    EXPECT_EQ(uninterrupted.final_accuracy, resumed.final_accuracy);
    ASSERT_EQ(uninterrupted.average_model.size(), resumed.average_model.size());
    for (std::size_t i = 0; i < resumed.average_model.size(); ++i) {
      EXPECT_EQ(uninterrupted.average_model[i], resumed.average_model[i]) << i;
    }
  }
}

TEST(ResumeTest, ResumeRefusesAMismatchedConfig) {
  const std::string ck = "/tmp/pdsl_resume_mismatch.bin";
  std::remove(ck.c_str());
  auto cfg = tiny_cfg();
  cfg.checkpoint_every = 3;
  cfg.checkpoint_path = ck;
  (void)core::run_experiment(cfg);

  auto other = tiny_cfg();
  other.resume_from = ck;
  other.hp.gamma = 0.07;  // different trajectory -> different identity hash
  EXPECT_THROW(core::run_experiment(other), std::runtime_error);

  // Volatile knobs are scrubbed from the identity: changing threads resumes.
  auto same = tiny_cfg();
  same.resume_from = ck;
  same.threads = 4;
  EXPECT_NO_THROW(core::run_experiment(same));
}

TEST(ResumeTest, ResumeCursorPastTheRequestedRoundsIsRejected) {
  const std::string ck = "/tmp/pdsl_resume_past.bin";
  std::remove(ck.c_str());
  auto cfg = tiny_cfg();
  cfg.checkpoint_every = 3;  // last cursor on disk: round 3 of 6... then 6? no:
  cfg.checkpoint_path = ck;  // fires at 3 only (never after the final round)
  (void)core::run_experiment(cfg);

  auto shorter = tiny_cfg();
  shorter.rounds = 3;  // cursor == rounds: nothing left to run
  shorter.resume_from = ck;
  EXPECT_THROW(core::run_experiment(shorter), std::exception);
}

namespace {

/// Two rows whose every column holds a distinct value, set through the table.
std::vector<RoundMetrics> distinct_series() {
  std::vector<RoundMetrics> series(2);
  for (std::size_t r = 0; r < series.size(); ++r) {
    for (std::size_t k = 0; k < std::size(kRoundColumns); ++k) {
      kRoundColumns[k].visit(
          [&](auto& v) { v = static_cast<std::decay_t<decltype(v)>>(100 * r + k + 1.25); },
          series[r]);
    }
  }
  return series;
}

std::string load_error(const std::string& path) {
  try {
    (void)recovery::load_run_state(path, 0);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ResumeTest, RunStateRoundTripsAndDetectsDamage) {
  const std::string path = "/tmp/pdsl_runstate_unit.bin";
  recovery::RunState st;
  st.config_hash = 0xDEADBEEFCAFEF00DULL;
  st.resume.completed_rounds = 7;
  st.resume.last_acc = 0.625;
  st.resume.accountant_rdp = {0.5, 1.25, 2.0};
  st.resume.accountant_invocations = 35;
  st.resume.prior_series = distinct_series();
  io::append_floats(st.algo_state, {1.0f, 2.0f, 3.0f});
  recovery::save_run_state(path, st);

  const auto back = recovery::load_run_state(path, st.config_hash);
  EXPECT_EQ(back.config_hash, st.config_hash);
  EXPECT_EQ(back.resume.completed_rounds, 7u);
  EXPECT_EQ(back.resume.last_acc, 0.625);
  EXPECT_EQ(back.resume.accountant_rdp, st.resume.accountant_rdp);
  EXPECT_EQ(back.resume.accountant_invocations, 35u);
  EXPECT_EQ(back.algo_state, st.algo_state);
  // Every column, volatile ones included, bit for bit.
  ASSERT_EQ(back.resume.prior_series.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (const auto& col : kRoundColumns) {
      col.visit([&](const auto& x, const auto& y) { EXPECT_EQ(x, y) << col.name; },
                st.resume.prior_series[r], back.resume.prior_series[r]);
    }
  }

  // Wrong identity hash: refused loudly.
  EXPECT_THROW(recovery::load_run_state(path, 0x1234), std::runtime_error);
  // expected 0 = skip the check (the CLI resolves the hash itself).
  EXPECT_NO_THROW(recovery::load_run_state(path, 0));

  // Truncation and single-byte corruption are both caught by the blob frame.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(recovery::load_run_state(path, 0), std::runtime_error);
  {
    bytes[bytes.size() - 9] ^= 0x40;  // flip a bit inside the body
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(recovery::load_run_state(path, 0), std::runtime_error);

  // PDSLRUN1 files held as many 8-byte fields per round in another order,
  // and PDSLRUN2 files per-agent noise-stream cursors: both are refused by
  // magic, named in the message. A file written under another column table
  // is refused by its fingerprint.
  io::save_blob(path, 0x5044534C52554E31ULL, io::ByteBuffer(8), "test");
  EXPECT_NE(load_error(path).find("bad magic"), std::string::npos) << load_error(path);
  io::save_blob(path, 0x5044534C52554E32ULL, io::ByteBuffer(8), "test");
  EXPECT_NE(load_error(path).find("bad magic \"PDSLRUN2\""), std::string::npos)
      << load_error(path);
  EXPECT_NE(load_error(path).find("(expected \"PDSLRUN3\")"), std::string::npos);
  io::save_blob(path, recovery::kRunStateMagic, io::ByteBuffer(8), "test");
  EXPECT_NE(load_error(path).find("different set of round metrics"), std::string::npos);
}

TEST(RoundColumns, EveryColumnSurvivesTheCsvAndTheLedger) {
  const auto series = distinct_series();
  const std::string csv = "/tmp/pdsl_columns_roundtrip.csv";
  write_metrics_csv(csv, "unit", series);
  const auto rows = pdsl::read_csv(csv);
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(rows[0].size(), 1 + std::size(kRoundColumns));
  EXPECT_EQ(rows[0][0], "run");

  const std::string ledger_path = "/tmp/pdsl_columns_roundtrip.jsonl";
  {
    obs::RunLedger ledger;
    ledger.open(ledger_path);
    for (const auto& m : series) {
      ledger.event("round", round_json(m, false));
      ledger.event(obs::RunLedger::kTimingEvent, round_json(m, true));
    }
  }
  std::ifstream in(ledger_path);
  std::vector<json::Value> events;
  for (std::string line; std::getline(in, line);) events.push_back(json::parse(line));
  ASSERT_EQ(events.size(), 4u);

  for (std::size_t r = 0; r < 2; ++r) {
    // Deterministic columns in "round", wall-clock ones in "phase_timing"
    // (which also names the round).
    const json::Value& det = events[2 * r];
    const json::Value& timing = events[2 * r + 1];
    EXPECT_EQ(timing.at("round").as_number(), det.at("round").as_number());
    for (std::size_t k = 0; k < std::size(kRoundColumns); ++k) {
      const auto& col = kRoundColumns[k];
      EXPECT_EQ(rows[0][k + 1], col.name);
      const json::Value& has = col.is_volatile ? timing : det;
      const json::Value& lacks = col.is_volatile ? det : timing;
      EXPECT_TRUE(k == 0 || !lacks.contains(col.name)) << col.name;  // k 0: round
      col.visit(
          [&](const auto& v) {
            EXPECT_EQ(std::stod(rows[r + 1][k + 1]), static_cast<double>(v)) << col.name;
            EXPECT_EQ(has.at(col.name).as_number(), static_cast<double>(v)) << col.name;
          },
          series[r]);
    }
  }
  std::remove(csv.c_str());
  std::remove(ledger_path.c_str());

  // Runs compare on the deterministic columns only.
  auto other = series;
  other[0].round_s += 1.0;
  EXPECT_EQ(deterministic_mismatch(series, other), "");
  other[1].avg_loss += 1.0;
  EXPECT_EQ(deterministic_mismatch(series, other), "round 101 avg_loss: 102.25 vs 103.25");
}
