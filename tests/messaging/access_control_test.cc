#include "messaging/access_control.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/clock.h"
#include "messaging/broker.h"
#include "messaging/cluster.h"
#include "messaging/consumer.h"
#include "messaging/producer.h"

#include "read_util.h"

namespace liquid::messaging {
namespace {

/// Access control (§2.1): misconfigured back-end systems must not be able to
/// touch other applications' data.
TEST(AccessControllerTest, DisabledAllowsEverything) {
  AccessController acls;
  EXPECT_TRUE(acls.Check("anyone", "any-topic", AclOperation::kWrite).ok());
  EXPECT_EQ(acls.denials(), 0);
}

TEST(AccessControllerTest, EnforcementRequiresGrant) {
  AccessController acls;
  acls.SetEnforcing(true);
  EXPECT_TRUE(
      acls.Check("app", "t", AclOperation::kRead).IsFailedPrecondition());
  acls.Allow("app", "t", AclOperation::kRead);
  EXPECT_TRUE(acls.Check("app", "t", AclOperation::kRead).ok());
  // Read grant does not imply write.
  EXPECT_TRUE(
      acls.Check("app", "t", AclOperation::kWrite).IsFailedPrecondition());
  EXPECT_EQ(acls.denials(), 2);
}

TEST(AccessControllerTest, WildcardTopicGrant) {
  AccessController acls;
  acls.SetEnforcing(true);
  acls.Allow("ops", "*", AclOperation::kRead);
  EXPECT_TRUE(acls.Check("ops", "anything", AclOperation::kRead).ok());
  EXPECT_TRUE(
      acls.Check("ops", "anything", AclOperation::kWrite).IsFailedPrecondition());
}

TEST(AccessControllerTest, RevokeRemovesGrant) {
  AccessController acls;
  acls.SetEnforcing(true);
  acls.Allow("app", "t", AclOperation::kWrite);
  EXPECT_TRUE(acls.Check("app", "t", AclOperation::kWrite).ok());
  acls.Revoke("app", "t", AclOperation::kWrite);
  EXPECT_FALSE(acls.Check("app", "t", AclOperation::kWrite).ok());
}

TEST(AccessControllerTest, InternalTrafficAlwaysAllowed) {
  AccessController acls;
  acls.SetEnforcing(true);
  EXPECT_TRUE(acls.Check("", "t", AclOperation::kWrite).ok());
  EXPECT_TRUE(acls.Check("", "t", AclOperation::kRead).ok());
}

class BrokerAclTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_brokers = 2;
    cluster_ = std::make_unique<Cluster>(config, &clock_);
    ASSERT_TRUE(cluster_->Start().ok());
    TopicConfig topic;
    topic.partitions = 1;
    topic.replication_factor = 2;
    ASSERT_TRUE(cluster_->CreateTopic("team-a-data", topic).ok());
    cluster_->acls()->SetEnforcing(true);
    cluster_->acls()->Allow("team-a", "team-a-data", AclOperation::kWrite);
    cluster_->acls()->Allow("team-a", "team-a-data", AclOperation::kRead);
  }

  SimulatedClock clock_{0};
  std::unique_ptr<Cluster> cluster_;
  const TopicPartition tp_{"team-a-data", 0};
};

TEST_F(BrokerAclTest, AuthorizedClientWorks) {
  ProducerConfig config;
  config.client_id = "team-a";
  config.batch_max_records = 1;
  Producer producer(cluster_.get(), config);
  ASSERT_TRUE(producer.Send("team-a-data", storage::Record::KeyValue("k", "v")).ok());
  Broker* leader = *cluster_->LeaderFor(tp_);
  auto fetch = leader->Fetch(tp_, 0, 4096, -1, "team-a");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(Decoded(*fetch).size(), 1u);
}

TEST_F(BrokerAclTest, UnauthorizedWriteRejected) {
  Broker* leader = *cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  auto resp = leader->Produce(tp_, batch, AckMode::kAll, -1, -1, "team-b");
  EXPECT_TRUE(resp.status().IsFailedPrecondition());
  EXPECT_EQ(*leader->LogEndOffset(tp_), 0);  // Nothing landed.
}

TEST_F(BrokerAclTest, UnauthorizedReadRejected) {
  Broker* leader = *cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  ASSERT_TRUE(leader->Produce(tp_, batch, AckMode::kAll).ok());  // Internal.
  auto fetch = leader->Fetch(tp_, 0, 4096, -1, "team-b");
  EXPECT_TRUE(fetch.status().IsFailedPrecondition());
  EXPECT_GT(cluster_->acls()->denials(), 0);
}

TEST_F(BrokerAclTest, ReplicationUnaffectedByAcls) {
  // Replica pulls carry no principal: replication keeps working even with
  // enforcement on and no grants.
  Broker* leader = *cluster_->LeaderFor(tp_);
  std::vector<storage::Record> batch{storage::Record::KeyValue("k", "v")};
  ASSERT_TRUE(leader->Produce(tp_, batch, AckMode::kLeader).ok());
  cluster_->ReplicationTick();
  auto state = cluster_->GetPartitionState(tp_);
  for (int replica : state->replicas) {
    EXPECT_EQ(*cluster_->broker(replica)->LogEndOffset(tp_), 1) << replica;
  }
}

}  // namespace
}  // namespace liquid::messaging
