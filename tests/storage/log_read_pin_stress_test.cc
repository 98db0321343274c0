// TSan stress for the unlocked copying read: readers scan segment files
// with no log lock held (a tiny page cache keeps them cold) while
// appenders, the group committer, truncation, retention and compaction
// run beside them. Every offset's record is the same function of the
// offset, so a range re-appended after a truncation, or rewritten by
// compaction, has the same bytes as before: any frame a reader returns
// must equal that encoding, whenever it was read. Run under
// -fsanitize=thread and -fsanitize=address by scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/page_cache.h"
#include "storage/record_batch.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

// The record every offset holds, but for its offset.
Record RecordTemplate() { return Record::ValueOnly(std::string(40, 'v'), 7); }

// The wire bytes of the record at `offset`.
std::string ExpectedFrame(int64_t offset) {
  Record record = RecordTemplate();
  record.offset = offset;
  return EncodedBatch::Encode({record}).bytes().ToString();
}

TEST(LogReadPinStressTest, UnlockedReadsRaceAppendsTruncationRetentionAndCompaction) {
  MemDisk disk;
  SimulatedClock clock(1000);
  // A few pages shared by all readers: most reads miss and copy from the
  // files, and the misses race the appends that extend the same pages.
  PageCacheConfig cache_config;
  cache_config.page_size = 256;
  cache_config.capacity_bytes = 1024;
  cache_config.flush_after_ms = 0;
  cache_config.readahead_pages = 2;
  PageCache cache(cache_config, &clock);

  LogConfig config;
  config.segment_bytes = 2048;
  config.retention_bytes = 12 << 10;
  config.compaction_enabled = true;
  config.sync_mode = SyncMode::kGroup;
  auto opened = Log::Open(&disk, &cache, "pin-stress/", config, &clock);
  LIQUID_ASSERT_OK(opened.status());
  std::unique_ptr<Log> log = std::move(opened).value();

  constexpr int kAppenders = 3;
  constexpr int kReaders = 3;
  constexpr int kBatchesPerAppender = 400;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> frames_checked{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBatchesPerAppender; ++i) {
        std::vector<Record> batch(4, RecordTemplate());
        auto appended = log->AppendBatch(&batch);
        ASSERT_TRUE(appended.ok()) << appended.status().ToString();
        if ((i + t) % 3 == 0) {
          // A truncation may remove the batch before it syncs.
          const Status durable = log->AwaitDurable(appended->last_offset() + 1);
          ASSERT_TRUE(durable.ok() || durable.IsOutOfRange())
              << durable.ToString();
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    // Budgets from under one frame to several segments.
    const size_t budget = size_t{64} << (3 * t);
    threads.emplace_back([&, budget] {
      int64_t cursor = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<EncodedBatch> batches;
        auto next = log->ReadEncodedRange(
            cursor, std::numeric_limits<int64_t>::max(), budget, &batches);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        int64_t last = -1;
        for (const EncodedBatch& batch : batches) {
          for (const BatchFrame& frame : batch.frames()) {
            ASSERT_GT(frame.offset, last);
            last = frame.offset;
            const std::string got(batch.buffer()->data() + frame.pos,
                                  frame.len);
            ASSERT_EQ(got, ExpectedFrame(frame.offset))
                << "offset " << frame.offset;
            frames_checked.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Wrap to the head once the end (or a truncated-away cursor) is
        // reached.
        cursor = batches.empty() ? 0 : *next;
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t end = log->end_offset();
      LIQUID_ASSERT_OK(log->Truncate(std::max(log->start_offset(), end - 6)));
      LIQUID_ASSERT_OK(log->ApplyRetention());
      LIQUID_ASSERT_OK(log->Compact());
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  for (int t = 0; t < kAppenders; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kAppenders; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(frames_checked.load(), 0);
  // Everything left reads back whole.
  std::vector<EncodedBatch> rest;
  LIQUID_ASSERT_OK(log->ReadEncodedRange(log->start_offset(),
                                         log->end_offset(), 1 << 20, &rest)
                       .status());
  for (const EncodedBatch& batch : rest) {
    for (const BatchFrame& frame : batch.frames()) {
      ASSERT_EQ(std::string(batch.buffer()->data() + frame.pos, frame.len),
                ExpectedFrame(frame.offset));
    }
  }
}

}  // namespace
}  // namespace liquid::storage
