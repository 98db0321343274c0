// TSan stress for the group-commit + zero-copy machinery: concurrent
// appenders (some awaiting durability) race the committer thread's fsync
// window, zero-copy and decoding readers pinning cache pages, and cache
// eviction forced by a small capacity. Run under -fsanitize=thread by
// scripts/check.sh; the assertions here are secondary to the data-race
// detection.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/page_cache.h"
#include "storage/record_batch.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::storage {
namespace {

TEST(LogGroupCommitStressTest, AppendersRaceCommitterAndPinnedReaders) {
  MemDisk disk;
  SimulatedClock clock(1000);
  // Small pages and capacity so eviction and page regrowth fire constantly
  // under the readers' pins.
  PageCacheConfig cache_config;
  cache_config.page_size = 512;
  cache_config.capacity_bytes = 16 << 10;
  cache_config.flush_after_ms = 0;
  PageCache cache(cache_config, &clock);

  LogConfig config;
  config.segment_bytes = 32 << 10;  // Roll segments mid-run too.
  config.sync_mode = SyncMode::kGroup;
  auto opened = Log::Open(&disk, &cache, "stress/", config, &clock);
  LIQUID_ASSERT_OK(opened.status());
  std::unique_ptr<Log> log = std::move(opened).value();

  constexpr int kAppenders = 4;
  constexpr int kReaders = 2;
  constexpr int kBatchesPerAppender = 100;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> awaited_max_end{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBatchesPerAppender; ++i) {
        std::vector<Record> batch;
        for (int r = 0; r < 5; ++r) {
          batch.push_back(Record::KeyValue(
              "k" + std::to_string(t) + "-" + std::to_string(i),
              std::string(64, 'v')));
        }
        auto result = log->AppendBatch(&batch);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        if ((i % 2) == 0) {  // Half block on the group.
          const int64_t end = result->last_offset() + 1;
          LIQUID_ASSERT_OK(log->AwaitDurable(end));
          int64_t seen = awaited_max_end.load();
          while (end > seen &&
                 !awaited_max_end.compare_exchange_weak(seen, end)) {
          }
          // An acked append must be covered by the durable watermark.
          ASSERT_GE(log->durable_offset(), end);
        }
      }
    });
  }
  // Reader 0 decodes a budget's worth of ReadEncoded steps, holding each
  // step's page pin past the log lock, as a consumer fetch does.
  threads.emplace_back([&] {
    int64_t cursor = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<Record> records;
      LIQUID_ASSERT_OK(ReadRecords(*log, cursor, 8 << 10, &records));
      for (size_t i = 1; i < records.size(); ++i) {
        ASSERT_EQ(records[i].offset, records[i - 1].offset + 1);
      }
      cursor = records.empty() ? 0 : records.back().offset + 1;
    }
  });
  for (int t = 1; t < kReaders; ++t) {
    threads.emplace_back([&] {
      int64_t cursor = 0;
      while (!stop.load(std::memory_order_acquire)) {
        EncodedBatch out;
        LIQUID_ASSERT_OK(log->ReadEncoded(cursor, 8 << 10, &out));
        if (!out.empty()) {
          // Frames must decode from whatever buffer (pinned page or copy)
          // the read returned, even as appenders extend and evict pages.
          std::vector<Record> decoded;
          ASSERT_TRUE(out.DecodeAll(&decoded).ok());
          ASSERT_EQ(decoded.front().offset, out.base_offset());
          cursor = out.last_offset() + 1;
        } else {
          cursor = 0;  // Wrap and rescan from the head.
        }
      }
    });
  }

  for (int t = 0; t < kAppenders; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kAppenders; t < threads.size(); ++t) threads[t].join();

  const int64_t total = kAppenders * kBatchesPerAppender * 5;
  EXPECT_EQ(log->end_offset(), total);
  EXPECT_GE(log->durable_offset(), awaited_max_end.load());
  EXPECT_GE(disk.sync_ops(), 1);
}

}  // namespace
}  // namespace liquid::storage
