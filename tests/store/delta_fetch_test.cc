// Delta-fetch equivalence: the fetch cache and delta windows
// (core::FetchMode::kDelta) are a pure cost optimization. Multi-round
// runs with interleaved publishes — fault-free, with injected faults
// (the fault-sweep composition), and under DHT node churn — must
// produce per-peer decision sets bit-identical to the full-fetch
// baseline. The DHT's batched multi-get must also visibly reduce message
// counts, or the batching layer is dead code.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

constexpr core::FetchMode kModes[] = {core::FetchMode::kFull,
                                      core::FetchMode::kDelta};

CdssConfig BaseConfig(StoreKind kind) {
  CdssConfig cfg;
  cfg.store = kind;
  cfg.participants = 10;
  cfg.rounds = 4;
  cfg.txns_between_recons = 2;
  return cfg;
}

std::vector<std::pair<uint32_t, uint64_t>> Sorted(const core::TxnIdSet& ids) {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (const core::TransactionId& id : ids) out.emplace_back(id.origin, id.seq);
  std::sort(out.begin(), out.end());
  return out;
}

struct ModeOutcome {
  CdssResult result;
  std::vector<std::pair<std::vector<std::pair<uint32_t, uint64_t>>,
                        std::vector<std::pair<uint32_t, uint64_t>>>>
      peers;  // (applied, rejected) per participant
};

ModeOutcome RunMode(CdssConfig cfg, core::FetchMode mode) {
  cfg.fetch_mode = mode;
  auto sim = Cdss::Make(cfg);
  EXPECT_TRUE(sim.ok());
  auto result = (*sim)->Run();
  EXPECT_TRUE(result.ok()) << core::FetchModeName(mode) << ": "
                           << result.status().ToString();
  ModeOutcome out;
  out.result = *result;
  for (size_t i = 0; i < (*sim)->participant_count(); ++i) {
    const core::Participant& p = (*sim)->participant(i);
    out.peers.emplace_back(Sorted(p.applied()), Sorted(p.rejected()));
  }
  return out;
}

class DeltaFetchTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(DeltaFetchTest, ModesProduceIdenticalDecisions) {
  const ModeOutcome baseline = RunMode(BaseConfig(GetParam()),
                                       core::FetchMode::kFull);
  const ModeOutcome delta = RunMode(BaseConfig(GetParam()),
                                    core::FetchMode::kDelta);
  EXPECT_EQ(delta.result.accepted, baseline.result.accepted);
  EXPECT_EQ(delta.result.rejected, baseline.result.rejected);
  EXPECT_EQ(delta.result.deferred, baseline.result.deferred);
  EXPECT_EQ(delta.result.state_ratio, baseline.result.state_ratio);
  EXPECT_EQ(delta.peers, baseline.peers);
}

TEST_P(DeltaFetchTest, ModesProduceIdenticalDecisionsUnderFaults) {
  // The fault-sweep composition: probabilistic faults over the store's
  // side-effecting operations. Fault *draws* differ across modes (the
  // modes make different numbers of side-effecting calls), but every
  // faulted run must still converge to the same final decisions.
  const ModeOutcome reference = RunMode(BaseConfig(GetParam()),
                                        core::FetchMode::kFull);
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (core::FetchMode mode : kModes) {
      CdssConfig cfg = BaseConfig(GetParam());
      cfg.fault.failure_probability = 0.01;
      cfg.fault.seed = seed;
      const ModeOutcome outcome = RunMode(cfg, mode);
      EXPECT_EQ(outcome.peers, reference.peers)
          << core::FetchModeName(mode) << " seed " << seed;
      EXPECT_EQ(outcome.result.state_ratio, reference.result.state_ratio)
          << core::FetchModeName(mode) << " seed " << seed;
    }
  }
}

TEST(DeltaFetchDhtTest, ModesProduceIdenticalDecisionsUnderChurn) {
  CdssConfig churned = BaseConfig(StoreKind::kDht);
  churned.rounds = 6;
  churned.participants = 12;
  churned.replication_factor = 3;
  churned.churn.enabled = true;
  churned.churn.seed = 5;
  churned.churn.crash_probability = 0.05;
  churned.churn.join_probability = 0.5;
  churned.churn.leave_probability = 0.25;
  churned.churn.min_live_nodes = 6;

  CdssConfig quiet = churned;
  quiet.churn = ChurnConfig{};
  const ModeOutcome baseline = RunMode(quiet, core::FetchMode::kFull);
  for (core::FetchMode mode : kModes) {
    const ModeOutcome outcome = RunMode(churned, mode);
    EXPECT_EQ(outcome.peers, baseline.peers) << core::FetchModeName(mode);
    EXPECT_EQ(outcome.result.state_ratio, baseline.result.state_ratio)
        << core::FetchModeName(mode);
  }
}

TEST(DeltaFetchDhtTest, BatchedMultiGetReducesMessages) {
  // Same schedule, same decisions — fewer protocol messages: full
  // re-requests all of history each round, one message per key, while
  // delta requests only the new window and batches its keys into
  // per-owner multi-gets.
  const ModeOutcome full = RunMode(BaseConfig(StoreKind::kDht),
                                   core::FetchMode::kFull);
  const ModeOutcome delta = RunMode(BaseConfig(StoreKind::kDht),
                                    core::FetchMode::kDelta);
  EXPECT_LT(delta.result.messages, full.result.messages);
  EXPECT_EQ(delta.peers, full.peers);
}

TEST(DeltaFetchCentralTest, DeltaServesRepeatWindowsFromTheCache) {
  // Drive rounds manually so per-reconciliation fetch stats are visible:
  // under kDelta the central store admits transactions to the arena at
  // publish time, so window scans decode nothing and later peers hit.
  CdssConfig cfg = BaseConfig(StoreKind::kCentral);
  cfg.fetch_mode = core::FetchMode::kDelta;
  auto sim = Cdss::Make(cfg);
  ASSERT_TRUE(sim.ok());
  core::FetchStats total;
  for (size_t round = 0; round < cfg.rounds; ++round) {
    for (size_t i = 0; i < (*sim)->participant_count(); ++i) {
      auto report = (*sim)->StepParticipant(i);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      total += report->fetch_stats;
    }
  }
  EXPECT_GT(total.cache_hits, 0);
  EXPECT_EQ(total.decoded, 0);
}

INSTANTIATE_TEST_SUITE_P(AllStores, DeltaFetchTest,
                         ::testing::Values(StoreKind::kCentral,
                                           StoreKind::kDht),
                         [](const auto& info) {
                           return info.param == StoreKind::kCentral ? "Central"
                                                                    : "Dht";
                         });

}  // namespace
}  // namespace orchestra::sim
