#include "isolation/scheduler.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "storage/disk.h"

#include "test_util.h"

namespace liquid::isolation {
namespace {

/// Resource isolation (§3.2, §4.4): ETL-as-a-service must guarantee that a
/// resource-hungry job cannot starve its neighbours.
class SchedulerTest : public ::testing::Test {
 protected:
  SystemClock clock_;
};

TEST(ContainerTest, MemoryBudgetEnforced) {
  Container container({"job", 1.0, 1000});
  EXPECT_TRUE(container.ChargeMemory(600).ok());
  EXPECT_TRUE(container.ChargeMemory(600).IsResourceExhausted());
  EXPECT_EQ(container.memory_used(), 600);
  container.ReleaseMemory(500);
  EXPECT_TRUE(container.ChargeMemory(600).ok());
  container.ReleaseMemory(10000);  // Clamped at zero.
  EXPECT_EQ(container.memory_used(), 0);
}

TEST(ContainerTest, VruntimeScalesInverselyWithShare) {
  Container heavy({"heavy", 4.0, 1 << 20});
  Container light({"light", 1.0, 1 << 20});
  heavy.ChargeCpuUs(4000);
  light.ChargeCpuUs(4000);
  // Same CPU burned: the high-share container has LOWER vruntime (it is
  // entitled to more).
  EXPECT_LT(heavy.vruntime(), light.vruntime());
}

TEST_F(SchedulerTest, RunsEverythingEventually) {
  FairScheduler scheduler(/*isolation=*/true, &clock_);
  const int a = scheduler.RegisterContainer({"a", 1.0, 1 << 20});
  const int b = scheduler.RegisterContainer({"b", 1.0, 1 << 20});
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    LIQUID_ASSERT_OK(scheduler.Submit(a, [&done] { ++done; }));
    LIQUID_ASSERT_OK(scheduler.Submit(b, [&done] { ++done; }));
  }
  auto completed = scheduler.RunUntilIdle();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(completed[a], 10);
  EXPECT_EQ(completed[b], 10);
}

TEST_F(SchedulerTest, SubmitToUnknownContainerFails) {
  FairScheduler scheduler(true, &clock_);
  EXPECT_TRUE(scheduler.Submit(3, [] {}).IsInvalidArgument());
  EXPECT_EQ(scheduler.container(3), nullptr);
}

TEST_F(SchedulerTest, FairSchedulingInterleavesDespiteNoisyNeighbour) {
  // Noisy job: each item burns ~200us. Victim: each item is instant.
  // With isolation the victim's items complete early, interleaved; without,
  // they queue behind the noisy flood.
  auto run = [this](bool isolation) {
    FairScheduler scheduler(isolation, &clock_);
    const int noisy = scheduler.RegisterContainer({"noisy", 1.0, 1 << 20});
    const int victim = scheduler.RegisterContainer({"victim", 1.0, 1 << 20});
    std::vector<int> completion_order;  // 0 = noisy item, 1 = victim item.
    // The noisy job floods first.
    for (int i = 0; i < 50; ++i) {
      LIQUID_EXPECT_OK(scheduler.Submit(noisy, [&completion_order] {
        storage::SpinFor(200 * 1000);
        completion_order.push_back(0);
      }));
    }
    for (int i = 0; i < 5; ++i) {
      LIQUID_EXPECT_OK(scheduler.Submit(victim, [&completion_order] {
        completion_order.push_back(1);
      }));
    }
    scheduler.RunUntilIdle();
    // Position by which all victim items finished.
    int last_victim = -1;
    for (size_t i = 0; i < completion_order.size(); ++i) {
      if (completion_order[i] == 1) last_victim = static_cast<int>(i);
    }
    return last_victim;
  };

  const int isolated_pos = run(true);
  const int fifo_pos = run(false);
  // FIFO: victim waits for all 50 noisy items -> finishes at the very end.
  EXPECT_GE(fifo_pos, 50);
  // Fair: victim's cheap items complete very early.
  EXPECT_LT(isolated_pos, 15);
}

TEST_F(SchedulerTest, SharesProportionallyFavourHigherShare) {
  // Simulated time, so each item costs exactly 50us of CPU and the split
  // does not depend on how the host schedules the test.
  SimulatedClock clock(0);
  FairScheduler scheduler(true, &clock);
  const int gold = scheduler.RegisterContainer({"gold", 3.0, 1 << 20});
  const int bronze = scheduler.RegisterContainer({"bronze", 1.0, 1 << 20});
  // Equal work per item for both.
  for (int i = 0; i < 100; ++i) {
    LIQUID_ASSERT_OK(scheduler.Submit(gold, [&clock] { clock.AdvanceUs(50); }));
    LIQUID_ASSERT_OK(scheduler.Submit(bronze, [&clock] { clock.AdvanceUs(50); }));
  }
  // Run a bounded number of dispatches.
  for (int i = 0; i < 40; ++i) scheduler.RunOne();
  // gold should have completed roughly 3x bronze's items.
  EXPECT_GT(scheduler.completed(gold), scheduler.completed(bronze));
  EXPECT_GE(scheduler.completed(gold), 2 * scheduler.completed(bronze) - 3);
}

TEST_F(SchedulerTest, RunOneReturnsFalseWhenEmpty) {
  FairScheduler scheduler(true, &clock_);
  scheduler.RegisterContainer({"a", 1.0, 1 << 20});
  EXPECT_FALSE(scheduler.RunOne());
}

TEST_F(SchedulerTest, BudgetedRunStopsAtDeadline) {
  FairScheduler scheduler(true, &clock_);
  const int a = scheduler.RegisterContainer({"a", 1.0, 1 << 20});
  for (int i = 0; i < 1000; ++i) {
    LIQUID_ASSERT_OK(scheduler.Submit(a, [] { storage::SpinFor(2 * 1000 * 1000); }));  // 2ms.
  }
  auto completed = scheduler.RunUntilIdle(/*budget_ms=*/20);
  EXPECT_LT(completed[a], 1000);  // Ran out of budget long before the queue.
  EXPECT_GT(completed[a], 0);
}

}  // namespace
}  // namespace liquid::isolation
