// Network-centric reconciliation (§5, Fig. 3): the update store computes
// transaction extensions, flattening, and conflict detection, and ships
// the analysis to the client. These tests verify the mode is
// decision-equivalent to client-centric reconciliation on both stores
// and that the cost split moves in the advertised direction.
#include <gtest/gtest.h>

#include "core/participant.h"
#include "net/sim_network.h"
#include "sim/cdss.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::Participant;
using core::ParticipantId;
using core::TrustPolicy;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;
using orchestra::testing::T;
using sim::Cdss;
using sim::CdssConfig;
using sim::StoreKind;

TEST(NetworkCentricTest, RequiresCatalog) {
  db::Catalog catalog = MakeProteinCatalog();
  net::SimNetwork network;
  auto engine = storage::StorageEngine::InMemory();
  CentralStore store(engine.get(), &network);  // no catalog
  TrustPolicy policy(1);
  ASSERT_TRUE(store.RegisterParticipant(1, &policy).ok());
  Participant p(1, &catalog, policy);
  EXPECT_EQ(p.ReconcileNetworkCentric(&store).status().code(),
            StatusCode::kNotSupported);
}

class NetworkCentricModeTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(NetworkCentricModeTest, BasicFlowAndDeferral) {
  db::Catalog catalog = MakeProteinCatalog();
  net::SimNetwork network;
  std::unique_ptr<storage::StorageEngine> engine;
  std::unique_ptr<core::UpdateStore> store;
  if (GetParam() == StoreKind::kCentral) {
    engine = storage::StorageEngine::InMemory();
    store = std::make_unique<CentralStore>(engine.get(), &network,
                                           CentralStoreOptions{}, &catalog);
  } else {
    store = std::make_unique<DhtStore>(3, &network, &catalog);
  }
  std::vector<std::unique_ptr<TrustPolicy>> policies;
  std::vector<std::unique_ptr<Participant>> peers;
  for (ParticipantId id = 0; id < 3; ++id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    for (ParticipantId other = 0; other < 3; ++other) {
      if (other != id) policy->TrustPeer(other, 1);
    }
    ASSERT_TRUE(store->RegisterParticipant(id, policy.get()).ok());
    policies.push_back(std::move(policy));
    peers.push_back(
        std::make_unique<Participant>(id, &catalog, *policies.back()));
  }

  // Simple propagation with a revision chain.
  ASSERT_TRUE(peers[0]->ExecuteTransaction({Ins("rat", "p1", "a", 0)}).ok());
  ASSERT_TRUE(peers[0]->Publish(store.get()).ok());
  ASSERT_TRUE(peers[1]->ReconcileNetworkCentric(store.get()).ok());
  ASSERT_TRUE(
      peers[1]->ExecuteTransaction({Mod("rat", "p1", "a", "b", 1)}).ok());
  ASSERT_TRUE(peers[1]->Publish(store.get()).ok());
  auto report = peers[2]->ReconcileNetworkCentric(store.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->accepted.size(), 2u);
  EXPECT_TRUE(InstanceHasExactly(peers[2]->instance(), {T({"rat", "p1", "b"})}));

  // Conflict deferral works through the network-computed analysis.
  ASSERT_TRUE(peers[0]->ExecuteTransaction({Ins("rat", "p9", "x", 0)}).ok());
  ASSERT_TRUE(peers[0]->Publish(store.get()).ok());
  ASSERT_TRUE(peers[1]->ExecuteTransaction({Ins("rat", "p9", "y", 1)}).ok());
  ASSERT_TRUE(peers[1]->Publish(store.get()).ok());
  report = peers[2]->ReconcileNetworkCentric(store.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deferred.size(), 2u);
  EXPECT_EQ(peers[2]->pending_conflicts().size(), 1u);

  // And the deferred backlog is reconsidered on the next NC reconcile.
  report = peers[2]->ReconcileNetworkCentric(store.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->reconsidered, 2u);
  EXPECT_EQ(report->deferred.size(), 2u);
}

/// Decisions and final instance of the untrusted-antecedent scenario:
/// p1 inserts, p2 revises, and a peer trusting only p2 reconciles once,
/// network-centric.
struct UntrustedAntecedentOutcome {
  bool ok = false;
  std::vector<core::TransactionId> accepted, rejected, deferred;
  std::vector<db::Tuple> rows;
};

UntrustedAntecedentOutcome RunUntrustedAntecedent(StoreKind kind) {
  db::Catalog catalog = MakeProteinCatalog();
  net::SimNetwork network;
  std::unique_ptr<storage::StorageEngine> engine;
  std::unique_ptr<core::UpdateStore> store;
  if (kind == StoreKind::kCentral) {
    engine = storage::StorageEngine::InMemory();
    store = std::make_unique<CentralStore>(engine.get(), &network,
                                           CentralStoreOptions{}, &catalog);
  } else {
    store = std::make_unique<DhtStore>(3, &network, &catalog);
  }
  std::vector<std::unique_ptr<TrustPolicy>> policies;
  for (ParticipantId id = 0; id < 3; ++id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    // Peers 0 and 1 trust each other; peer 2 trusts only peer 1.
    policy->TrustPeer(id == 1 ? 0 : 1, 1);
    ORCH_CHECK(store->RegisterParticipant(id, policy.get()).ok());
    policies.push_back(std::move(policy));
  }
  Participant p0(0, &catalog, *policies[0]);
  Participant p1(1, &catalog, *policies[1]);
  Participant picky(2, &catalog, *policies[2]);
  UntrustedAntecedentOutcome out;
  if (!p0.ExecuteTransaction({Ins("rat", "p1", "a", 0)}).ok() ||
      !p0.Publish(store.get()).ok() ||
      !p1.ReconcileNetworkCentric(store.get()).ok() ||
      !p1.ExecuteTransaction({Mod("rat", "p1", "a", "b", 1)}).ok() ||
      !p1.Publish(store.get()).ok()) {
    return out;
  }
  auto report = picky.ReconcileNetworkCentric(store.get());
  if (!report.ok()) return out;
  out.ok = true;
  out.accepted = report->accepted;
  out.rejected = report->rejected;
  out.deferred = report->deferred;
  auto table = picky.instance().GetTable("F");
  if (table.ok()) out.rows = (*table)->ScanSorted();
  return out;
}

TEST_P(NetworkCentricModeTest, UntrustedAntecedentShippedWithTrustedDependent) {
  // The store-side analysis needs the revision's untrusted antecedent
  // in the bundle; both stores must ship it and accept the revision.
  const UntrustedAntecedentOutcome central =
      RunUntrustedAntecedent(StoreKind::kCentral);
  const UntrustedAntecedentOutcome outcome = RunUntrustedAntecedent(GetParam());
  ASSERT_TRUE(central.ok);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.accepted, central.accepted);
  EXPECT_EQ(outcome.rejected, central.rejected);
  EXPECT_EQ(outcome.deferred, central.deferred);
  EXPECT_EQ(outcome.rows, central.rows);
  EXPECT_EQ(outcome.accepted.size(), 1u);
  EXPECT_EQ(outcome.rows, std::vector<db::Tuple>{T({"rat", "p1", "b"})});
}

INSTANTIATE_TEST_SUITE_P(BothStores, NetworkCentricModeTest,
                         ::testing::Values(StoreKind::kCentral,
                                           StoreKind::kDht),
                         [](const ::testing::TestParamInfo<StoreKind>& info) {
                           return info.param == StoreKind::kCentral
                                      ? "Central"
                                      : "Dht";
                         });

using EquivalenceParam = std::tuple<StoreKind, size_t /*txn size*/>;

class NetworkCentricEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(NetworkCentricEquivalenceTest, SameDecisionsAsClientCentric) {
  // The two modes split the work differently but must produce identical
  // instances and decision counts on identical schedules.
  CdssConfig config;
  config.participants = 5;
  config.store = std::get<0>(GetParam());
  config.transaction_size = std::get<1>(GetParam());
  config.txns_between_recons = 3;
  config.rounds = 3;
  config.seed = 77;
  config.workload.key_pool = 150;
  config.workload.key_zipf_s = 1.0;

  CdssConfig nc_config = config;
  nc_config.network_centric = true;

  auto cc = Cdss::Make(config);
  auto nc = Cdss::Make(nc_config);
  ASSERT_TRUE(cc.ok());
  ASSERT_TRUE(nc.ok());
  auto cc_result = (*cc)->Run();
  auto nc_result = (*nc)->Run();
  ASSERT_TRUE(cc_result.ok()) << cc_result.status().ToString();
  ASSERT_TRUE(nc_result.ok()) << nc_result.status().ToString();

  EXPECT_EQ(cc_result->accepted, nc_result->accepted);
  EXPECT_EQ(cc_result->rejected, nc_result->rejected);
  EXPECT_EQ(cc_result->deferred, nc_result->deferred);
  EXPECT_DOUBLE_EQ(cc_result->state_ratio, nc_result->state_ratio);
  for (size_t i = 0; i < (*cc)->participant_count(); ++i) {
    EXPECT_TRUE((*cc)->participant(i).instance() ==
                (*nc)->participant(i).instance())
        << "peer " << i << " diverged between modes";
  }
  // The whole point of the trade: network-centric sends more data.
  EXPECT_GT(nc_result->bytes, cc_result->bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkCentricEquivalenceTest,
    ::testing::Combine(::testing::Values(StoreKind::kCentral,
                                         StoreKind::kDht),
                       ::testing::Values<size_t>(1, 3)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& info) {
      return std::string(std::get<0>(info.param) == StoreKind::kCentral
                             ? "Central"
                             : "Dht") +
             "_size" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace orchestra::store
