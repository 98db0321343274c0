// A copying read scans segment files with no log lock held: appends run
// beside it, and truncation waits for it. The `log.read.copy` fault point
// stalls a cold read inside that unlocked stretch, so both are checked with
// a deterministic interleaving rather than by timing races.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/record_batch.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

using SteadyClock = std::chrono::steady_clock;

class LogReadPinTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Default()->Clear(); }

  // A log with no page cache, so every read takes the copying path, and
  // its first ten records' wire bytes.
  std::unique_ptr<Log> OpenWithBacklog(const std::string& prefix,
                                       std::string* appended) {
    auto opened = Log::Open(&disk_, nullptr, prefix, LogConfig{}, &clock_);
    EXPECT_TRUE(opened.ok());
    std::unique_ptr<Log> log = std::move(opened).value();
    std::vector<Record> backlog;
    for (int i = 0; i < 10; ++i) {
      backlog.push_back(Record::KeyValue("k", "v" + std::to_string(i)));
    }
    auto batch = log->AppendBatch(&backlog);
    EXPECT_TRUE(batch.ok());
    *appended = batch->bytes().ToString();
    return log;
  }

  // Stalls the next copying read for 200 ms, after its pin.
  static void StallNextCopy() {
    FaultSiteConfig delay;
    delay.kind = FaultActionKind::kDelay;
    delay.delay_us = 200'000;
    delay.max_triggers = 1;
    FaultRegistry::Default()->Arm("log.read.copy", delay);
  }

  // Returns once a reader is inside the stalled stretch.
  static void AwaitStall() {
    const SteadyClock::time_point give_up =
        SteadyClock::now() + std::chrono::seconds(10);
    while (FaultRegistry::Default()->triggers("log.read.copy") == 0 &&
           SteadyClock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(FaultRegistry::Default()->triggers("log.read.copy"), 1);
  }

  MemDisk disk_;
  SimulatedClock clock_{1000};
};

TEST_F(LogReadPinTest, AppendCompletesWhileACopyingReadIsStalled) {
  std::string appended;
  std::unique_ptr<Log> log = OpenWithBacklog("pin-append/", &appended);
  StallNextCopy();

  EncodedBatch read;
  Status read_status;
  SteadyClock::time_point read_done;
  std::thread reader([&] {
    read_status = log->ReadEncoded(0, 1 << 20, &read);
    read_done = SteadyClock::now();
  });
  AwaitStall();
  std::vector<Record> one{Record::KeyValue("k", "live")};
  LIQUID_EXPECT_OK(log->AppendBatch(&one));
  const SteadyClock::time_point append_done = SteadyClock::now();
  reader.join();
  LIQUID_ASSERT_OK(read_status);
  // The append committed with at least half of the stall to spare. Were
  // the file scan under the log lock, the append would wait out the read.
  EXPECT_LT(append_done + std::chrono::milliseconds(100), read_done);
  // The read returns the log as of its snapshot: the backlog, not the
  // record appended during the stall.
  EXPECT_EQ(read.bytes().ToString(), appended);
  EXPECT_EQ(log->end_offset(), 11);
}

TEST_F(LogReadPinTest, TruncateWaitsForAStalledReadWhoseBytesStayIntact) {
  std::string appended;
  std::unique_ptr<Log> log = OpenWithBacklog("pin-truncate/", &appended);
  Histogram* pin_wait = MetricsRegistry::Default()->GetHistogram(
      "liquid.log.pin-truncate.read_pin_wait_us");
  const int64_t waits_before = pin_wait->count();
  // With no reader in flight a mutator does not wait, and records nothing.
  LIQUID_ASSERT_OK(log->Truncate(10));
  LIQUID_ASSERT_OK(log->ApplyRetention());
  EXPECT_EQ(pin_wait->count(), waits_before);
  StallNextCopy();

  EncodedBatch read;
  Status read_status;
  // The 200 ms stall runs after this stamp and before the reader releases
  // its pin, so a Truncate that waits for the pin cannot finish earlier
  // than 200 ms past it. (Stamps taken after the release are unordered.)
  const SteadyClock::time_point reader_spawned = SteadyClock::now();
  std::thread reader(
      [&] { read_status = log->ReadEncoded(0, 1 << 20, &read); });
  AwaitStall();
  // Truncate rewrites the segment the stalled read is scanning (offsets
  // 5..9 go), so it must wait for the read before it drops the file.
  LIQUID_EXPECT_OK(log->Truncate(5));
  const SteadyClock::time_point truncate_done = SteadyClock::now();
  reader.join();
  EXPECT_GE(truncate_done, reader_spawned + std::chrono::milliseconds(200));
  LIQUID_ASSERT_OK(read_status);
  EXPECT_EQ(read.bytes().ToString(), appended);
  ASSERT_EQ(read.frames().size(), 10u);
  EXPECT_EQ(read.last_offset(), 9);
  EXPECT_EQ(log->end_offset(), 5);
  // The wait is visible: one sample of at least most of the stall.
  EXPECT_EQ(pin_wait->count(), waits_before + 1);
  EXPECT_GT(pin_wait->max(), 100'000);
}

}  // namespace
}  // namespace liquid::storage
