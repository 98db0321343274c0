// Group-commit durability (DESIGN.md §6c): sync_mode semantics, the
// durable-offset watermark, fsync failure handling, and the E7b-style crash
// invariant — records acknowledged durable survive a crash (simulated by
// truncating the backing store to its fsynced prefix), unacknowledged ones
// may be lost, and survivors are always an offset prefix.

#include "storage/log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "storage/disk.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::storage {
namespace {

std::vector<Record> KeyedBatch(int count, const std::string& prefix = "k") {
  std::vector<Record> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(
        Record::KeyValue(prefix + std::to_string(i), "v" + std::to_string(i)));
  }
  return out;
}

/// Holds every fsync inside MemDisk's sync hook, which runs within the
/// committer's Flush, until Release() or destruction; later syncs pass
/// straight through. The hook shares the gate's state, so it stays valid
/// for as long as the disk keeps it. Declare the gate after the futures it
/// unblocks: releasing on destruction, on any exit from the test body,
/// lets their destructors finish, so a failed bound reports instead of
/// hanging.
class SyncGate {
 public:
  SyncGate() = default;
  ~SyncGate() { Release(); }
  SyncGate(const SyncGate&) = delete;
  SyncGate& operator=(const SyncGate&) = delete;

  void Install(MemDisk* disk) {
    disk->SetSyncFaultHook([state = state_](const std::string&) {
      std::unique_lock<std::mutex> lock(state->mu);
      state->entered = true;
      state->cv.notify_all();
      state->cv.wait(lock, [&state] { return state->released; });
      return Status::OK();
    });
  }

  /// True once a sync is held in the hook (gives up after 10 s).
  bool AwaitEntered() {
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->cv.wait_for(lock, std::chrono::seconds(10),
                               [this] { return state_->entered; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// How long an append may take while the committer is held mid-sync.
constexpr auto kAppendBound = std::chrono::seconds(2);

class LogGroupCommitTest : public ::testing::Test {
 protected:
  std::unique_ptr<Log> OpenLog(SyncMode mode,
                               const std::string& prefix = "g0/",
                               size_t segment_bytes = LogConfig{}.segment_bytes) {
    LogConfig config;
    config.sync_mode = mode;
    config.segment_bytes = segment_bytes;
    auto log = Log::Open(&disk_, nullptr, prefix, config, &clock_);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return std::move(log).value();
  }

  /// Appends one batch, optionally blocking until it is durable.
  Status Append(Log* log, int records, bool await) {
    auto batch = KeyedBatch(records);
    auto appended = log->AppendBatch(&batch);
    LIQUID_RETURN_NOT_OK(appended.status());
    if (!await) return Status::OK();
    return log->AwaitDurable(appended->last_offset() + 1);
  }

  /// Appends one unawaited batch per entry of `sizes` on another thread.
  static std::future<Status> AppendAsync(Log* log, std::vector<int> sizes) {
    return std::async(std::launch::async, [log, sizes] {
      for (int records : sizes) {
        auto batch = KeyedBatch(records);
        LIQUID_RETURN_NOT_OK(log->AppendBatch(&batch).status());
      }
      return Status::OK();
    });
  }

  int64_t CountRecords(Log* log) {
    std::vector<Record> out;
    EXPECT_TRUE(ReadRecords(*log, 0, 64 << 20, &out).ok());
    return static_cast<int64_t>(out.size());
  }

  MemDisk disk_;
  SimulatedClock clock_{1000};
};

TEST_F(LogGroupCommitTest, NoneNeverAdvancesDurableOffset) {
  auto log = OpenLog(SyncMode::kNone);
  LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/false));
  EXPECT_EQ(log->durable_offset(), 0);
  EXPECT_EQ(disk_.sync_ops(), 0);
}

TEST_F(LogGroupCommitTest, AwaitedGroupAppendBecomesDurable) {
  auto log = OpenLog(SyncMode::kGroup);
  LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/true));
  EXPECT_EQ(log->durable_offset(), 5);
  EXPECT_GE(disk_.sync_ops(), 1);
}

TEST_F(LogGroupCommitTest, AckIsPrefixOrdered) {
  // Awaiting one batch implies every earlier batch is durable too: the
  // committer's window always covers a prefix of the committed offsets.
  auto log = OpenLog(SyncMode::kGroup);
  for (int i = 0; i < 5; ++i) {
    LIQUID_ASSERT_OK(Append(log.get(), 10, /*await=*/false));
  }
  LIQUID_ASSERT_OK(Append(log.get(), 1, /*await=*/true));
  EXPECT_EQ(log->durable_offset(), log->end_offset());
}

TEST_F(LogGroupCommitTest, AckedRecordsSurviveCrashUnackedTailMayNot) {
  // The E7b invariant, extended to single-node durability: acknowledged
  // means fsynced, so a crash (backing store truncated to the synced
  // prefix) keeps every acked record; the un-awaited tail appended while
  // fsyncs were failing is legally lost — and what survives is a prefix.
  int64_t acked_end = 0;
  {
    auto log = OpenLog(SyncMode::kGroup);
    for (int i = 0; i < 4; ++i) {
      LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/true));
    }
    acked_end = log->end_offset();
    ASSERT_EQ(acked_end, 20);

    // Fail all further fsyncs so the tail cannot become durable — not in a
    // committer window and not in the destructor's best-effort final sync.
    disk_.SetSyncFaultHook(
        [](const std::string&) { return Status::IOError("injected"); });
    LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/false));
    EXPECT_FALSE(Append(log.get(), 5, /*await=*/true).ok());
    EXPECT_EQ(log->durable_offset(), acked_end);

    disk_.SimulateCrash();
  }

  disk_.SetSyncFaultHook(nullptr);
  auto log = OpenLog(SyncMode::kGroup);
  EXPECT_EQ(log->end_offset(), acked_end);
  EXPECT_EQ(CountRecords(log.get()), acked_end);
}

TEST_F(LogGroupCommitTest, FailedSyncFailsAckAndLaterAppendsRecover) {
  auto log = OpenLog(SyncMode::kGroup);
  LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/true));

  std::atomic<bool> fail{true};
  disk_.SetSyncFaultHook([&fail](const std::string&) {
    return fail.load() ? Status::IOError("injected") : Status::OK();
  });
  Status st = Append(log.get(), 5, /*await=*/true);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(log->durable_offset(), 5);

  // The committer retries once new batches commit past the failed window;
  // the next awaited append covers the previously-failed range too.
  fail.store(false);
  LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/true));
  EXPECT_EQ(log->durable_offset(), 15);
}

TEST_F(LogGroupCommitTest, AwaitOnAFailedWindowAsksForOneFreshAttempt) {
  // A resend of a batch whose sync failed appends nothing new, so the
  // committer would never retry its window on its own. Each AwaitDurable
  // over an already-failed window asks for exactly one fresh attempt: the
  // error is real while the fault lasts, and the wait succeeds once it
  // clears — with no tight retry loop in between.
  auto log = OpenLog(SyncMode::kGroup);
  std::atomic<bool> fail{true};
  std::atomic<int> attempts{0};
  disk_.SetSyncFaultHook([&](const std::string&) {
    attempts.fetch_add(1);
    return fail.load() ? Status::IOError("injected") : Status::OK();
  });
  Counter* failures = MetricsRegistry::Default()->GetCounter(
      "liquid.log.g0.group_commit_sync_failures");
  const int64_t failures_before = failures->value();
  EXPECT_FALSE(Append(log.get(), 5, /*await=*/true).ok());
  const int after_first = attempts.load();
  EXPECT_GE(after_first, 1);

  EXPECT_FALSE(log->AwaitDurable(5).ok());
  EXPECT_FALSE(log->AwaitDurable(5).ok());
  EXPECT_EQ(attempts.load(), after_first + 2);
  EXPECT_EQ(failures->value() - failures_before, after_first + 2);

  fail.store(false);
  LIQUID_ASSERT_OK(log->AwaitDurable(5));
  EXPECT_EQ(log->durable_offset(), 5);
  EXPECT_EQ(failures->value() - failures_before, after_first + 2);
}

TEST_F(LogGroupCommitTest, TruncateLowersDurabilityToTheRewrittenSegment) {
  // A partial truncation rewrites the surviving frames unsynced, so they are
  // not durable again until the committer's next window; waits past the new
  // end fail at once instead of trusting the old watermark.
  {
    auto log = OpenLog(SyncMode::kGroup);
    LIQUID_ASSERT_OK(Append(log.get(), 10, /*await=*/true));
    ASSERT_EQ(log->durable_offset(), 10);
    // Failing syncs keep the committer from re-syncing the rewrite before
    // the watermark is checked.
    disk_.SetSyncFaultHook(
        [](const std::string&) { return Status::IOError("injected"); });
    LIQUID_ASSERT_OK(log->Truncate(4));
    EXPECT_EQ(log->durable_offset(), 0);
    EXPECT_TRUE(log->AwaitDurable(10).IsOutOfRange());
    disk_.SetSyncFaultHook(nullptr);
    LIQUID_ASSERT_OK(Append(log.get(), 3, /*await=*/true));
    EXPECT_EQ(log->durable_offset(), 7);
    disk_.SimulateCrash();
  }
  auto log = OpenLog(SyncMode::kGroup);
  EXPECT_EQ(log->end_offset(), 7);
  EXPECT_EQ(CountRecords(log.get()), 7);
}

TEST_F(LogGroupCommitTest, FollowerAppendsCountAsGroupCommitBatches) {
  // Replicas of a partition share the liquid.log.<topic>-<p>.* counters and
  // the committer counts follower fsyncs in group_commit_syncs, so follower
  // batches must count in group_commit_batches too, or the batches-per-sync
  // ratio under-reads on replicated topics.
  auto leader = OpenLog(SyncMode::kNone, "gl/");
  auto follower = OpenLog(SyncMode::kGroup, "gf/");
  Counter* batches = MetricsRegistry::Default()->GetCounter(
      "liquid.log.gf.group_commit_batches");
  const int64_t before = batches->value();
  constexpr int kBatches = 7;
  for (int i = 0; i < kBatches; ++i) {
    auto records = KeyedBatch(3);
    auto batch = leader->AppendBatch(&records);
    LIQUID_ASSERT_OK(batch.status());
    LIQUID_ASSERT_OK(follower->AppendEncoded(*batch));
  }
  EXPECT_EQ(batches->value() - before, kBatches);
  LIQUID_ASSERT_OK(follower->AwaitDurable(follower->end_offset()));
}

TEST_F(LogGroupCommitTest, AppendCompletesWhileTheCommitterSyncs) {
  // The committer fsyncs with no log lock held, so an append commits while
  // a whole sync window is still in progress instead of queueing behind it.
  auto log = OpenLog(SyncMode::kGroup, "g-stall/");
  std::future<Status> second;
  SyncGate gate;
  gate.Install(&disk_);
  LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/false));
  ASSERT_TRUE(gate.AwaitEntered());

  second = AppendAsync(log.get(), {5});
  ASSERT_EQ(second.wait_for(kAppendBound), std::future_status::ready)
      << "append blocked behind the held sync";
  LIQUID_ASSERT_OK(second.get());
  EXPECT_EQ(log->end_offset(), 10);

  gate.Release();
  LIQUID_EXPECT_OK(log->AwaitDurable(5));
  LIQUID_EXPECT_OK(log->AwaitDurable(10));
  EXPECT_EQ(log->durable_offset(), 10);
}

TEST_F(LogGroupCommitTest, BytesAppendedDuringASyncStayUnsyncedUntilTheNextWindow) {
  // A segment is marked synced only up to the end snapshotted before its
  // fsync started. Bytes that land in it during the sync stay dirty, so the
  // next window syncs them before it acknowledges them; a crash then keeps
  // every acked record, in the old segment and in the one rolled to.
  constexpr size_t kSegmentBytes = 4096;
  int64_t acked_end = 0;
  {
    auto log = OpenLog(SyncMode::kGroup, "g-mid/", kSegmentBytes);
    std::future<Status> during;
    SyncGate gate;
    gate.Install(&disk_);
    LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/false));
    ASSERT_TRUE(gate.AwaitEntered());

    // Two batches land in the segment being synced; the last one is larger
    // than a segment, so it fills that segment and rolls to a new one.
    during = AppendAsync(log.get(), {5, 5, 200});
    ASSERT_EQ(during.wait_for(kAppendBound), std::future_status::ready)
        << "appends blocked behind the held sync";
    LIQUID_ASSERT_OK(during.get());
    ASSERT_GE(log->segment_count(), 2);

    gate.Release();
    acked_end = log->end_offset();
    ASSERT_EQ(acked_end, 215);
    for (int64_t end : {5, 10, 15, 215}) {
      LIQUID_ASSERT_OK(log->AwaitDurable(end));
    }
    disk_.SimulateCrash();
  }
  disk_.SetSyncFaultHook(nullptr);
  auto log = OpenLog(SyncMode::kGroup, "g-mid/", kSegmentBytes);
  EXPECT_EQ(log->end_offset(), acked_end);
  EXPECT_EQ(CountRecords(log.get()), acked_end);
}

TEST_F(LogGroupCommitTest, TruncateWaitsForAnInFlightSyncAndDiscardsItsWindow) {
  // The committer's unlocked fsync holds a read pin, so a truncation that
  // rewrites the segment being synced waits for it, and the window it
  // straddled proves nothing about the rewritten bytes: it is discarded, and
  // durability stays at or below the truncation point until the committer
  // syncs the rewrite.
  auto log = OpenLog(SyncMode::kGroup, "g-trunc/");
  Histogram* pin_wait = MetricsRegistry::Default()->GetHistogram(
      "liquid.log.g-trunc.read_pin_wait_us");
  LIQUID_ASSERT_OK(Append(log.get(), 10, /*await=*/true));
  const int64_t waits_before = pin_wait->count();

  std::future<Status> truncated;
  SyncGate gate;
  gate.Install(&disk_);
  LIQUID_ASSERT_OK(Append(log.get(), 5, /*await=*/false));
  ASSERT_TRUE(gate.AwaitEntered());

  truncated = std::async(std::launch::async,
                         [&log] { return log->Truncate(12); });
  EXPECT_EQ(truncated.wait_for(std::chrono::milliseconds(300)),
            std::future_status::timeout)
      << "truncation dropped a segment under an in-flight sync";

  gate.Release();
  LIQUID_ASSERT_OK(truncated.get());
  EXPECT_LE(log->durable_offset(), 12);
  LIQUID_ASSERT_OK(log->AwaitDurable(12));
  EXPECT_EQ(log->durable_offset(), 12);
  EXPECT_EQ(log->end_offset(), 12);
  EXPECT_EQ(pin_wait->count(), waits_before + 1);
}

}  // namespace
}  // namespace liquid::storage
