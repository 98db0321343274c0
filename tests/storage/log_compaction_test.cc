#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "common/clock.h"
#include "common/random.h"
#include "storage/log.h"

#include "read_util.h"
#include "test_util.h"

namespace liquid::storage {
namespace {

class LogCompactionTest : public ::testing::Test {
 protected:
  std::unique_ptr<Log> OpenCompactedLog(size_t segment_bytes = 1024,
                                        bool drop_tombstones = false) {
    LogConfig config;
    config.segment_bytes = segment_bytes;
    config.compaction_enabled = true;
    config.compaction_drops_tombstones = drop_tombstones;
    auto log = Log::Open(&disk_, nullptr, "c0/", config, &clock_);
    EXPECT_TRUE(log.ok());
    return std::move(log).value();
  }

  /// Latest value per key by scanning the whole log.
  std::map<std::string, std::pair<std::string, bool>> Materialize(Log* log) {
    std::map<std::string, std::pair<std::string, bool>> view;
    std::vector<Record> out;
    LIQUID_EXPECT_OK(ReadRecords(*log, log->start_offset(), 100 << 20, &out));
    for (const Record& r : out) {
      view[r.key] = {r.value, r.is_tombstone};
    }
    return view;
  }

  MemDisk disk_;
  SimulatedClock clock_{1000};
};

TEST_F(LogCompactionTest, KeepsOnlyLatestPerKey) {
  auto log = OpenCompactedLog();
  // 10 keys, 20 rounds of updates.
  for (int round = 0; round < 20; ++round) {
    std::vector<Record> batch;
    for (int k = 0; k < 10; ++k) {
      batch.push_back(Record::KeyValue(
          "key" + std::to_string(k),
          "round" + std::to_string(round)));
    }
    ASSERT_TRUE(log->AppendBatch(&batch).ok());
  }
  const auto before = Materialize(log.get());
  auto stats = log->Compact();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->records_before, stats->records_after);
  EXPECT_LT(stats->bytes_after, stats->bytes_before);

  // Compaction preserves the materialized view exactly.
  const auto after = Materialize(log.get());
  EXPECT_EQ(before, after);
  for (const auto& [key, value] : after) {
    EXPECT_EQ(value.first, "round19") << key;
  }
}

TEST_F(LogCompactionTest, OffsetsPreservedWithGaps) {
  auto log = OpenCompactedLog();
  for (int round = 0; round < 10; ++round) {
    std::vector<Record> batch;
    for (int k = 0; k < 5; ++k) {
      batch.push_back(Record::KeyValue("key" + std::to_string(k), "x"));
    }
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  const int64_t end_before = log->end_offset();
  LIQUID_ASSERT_OK(log->Compact());
  EXPECT_EQ(log->end_offset(), end_before);  // End offset untouched.
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*log, 0, 100 << 20, &out));
  // Offsets strictly increasing (gaps allowed).
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].offset, out[i].offset);
  }
}

TEST_F(LogCompactionTest, ActiveSegmentNeverRewritten) {
  auto log = OpenCompactedLog(1 << 20);  // One big segment: nothing closed.
  std::vector<Record> batch{Record::KeyValue("a", "1"),
                            Record::KeyValue("a", "2")};
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  auto stats = log->Compact();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->segments_cleaned, 0);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*log, 0, 1 << 20, &out));
  EXPECT_EQ(out.size(), 2u);  // Both survive: active segment untouched.
}

TEST_F(LogCompactionTest, TombstonesKeptByDefault) {
  auto log = OpenCompactedLog();
  for (int round = 0; round < 10; ++round) {
    std::vector<Record> batch;
    for (int k = 0; k < 5; ++k) {
      batch.push_back(Record::KeyValue("key" + std::to_string(k), "x"));
    }
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  std::vector<Record> del{Record::Tombstone("key0")};
  LIQUID_ASSERT_OK(log->AppendBatch(&del));
  // Push the tombstone out of the active segment.
  for (int i = 0; i < 10; ++i) {
    std::vector<Record> filler{Record::KeyValue("other", "y")};
    LIQUID_ASSERT_OK(log->AppendBatch(&filler));
  }
  LIQUID_ASSERT_OK(log->Compact());
  const auto view = Materialize(log.get());
  ASSERT_TRUE(view.count("key0"));
  EXPECT_TRUE(view.at("key0").second);  // Still a tombstone.
}

TEST_F(LogCompactionTest, TombstonesDroppedWhenConfigured) {
  auto log = OpenCompactedLog(1024, /*drop_tombstones=*/true);
  for (int round = 0; round < 10; ++round) {
    std::vector<Record> batch;
    for (int k = 0; k < 5; ++k) {
      batch.push_back(Record::KeyValue("key" + std::to_string(k), "x"));
    }
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  std::vector<Record> del{Record::Tombstone("key0")};
  LIQUID_ASSERT_OK(log->AppendBatch(&del));
  // Enough filler to roll the tombstone's segment out of the active position.
  for (int i = 0; i < 60; ++i) {
    std::vector<Record> filler{Record::KeyValue("other", "y")};
    LIQUID_ASSERT_OK(log->AppendBatch(&filler));
  }
  ASSERT_GT(log->segment_count(), 2);
  LIQUID_ASSERT_OK(log->Compact());
  const auto view = Materialize(log.get());
  EXPECT_FALSE(view.count("key0"));  // Tombstone gone entirely.
}

TEST_F(LogCompactionTest, DisabledCompactionIsNoOp) {
  LogConfig config;
  config.segment_bytes = 512;
  auto log = Log::Open(&disk_, nullptr, "nc/", config, &clock_);
  std::vector<Record> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(Record::KeyValue("samekey", "v"));
  }
  LIQUID_ASSERT_OK((*log)->AppendBatch(&batch));
  auto stats = (*log)->Compact();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->segments_cleaned, 0);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(**log, 0, 100 << 20, &out));
  EXPECT_EQ(out.size(), 100u);
}

TEST_F(LogCompactionTest, RepeatedCompactionIsIdempotent) {
  auto log = OpenCompactedLog();
  for (int round = 0; round < 15; ++round) {
    std::vector<Record> batch;
    for (int k = 0; k < 8; ++k) {
      batch.push_back(Record::KeyValue("key" + std::to_string(k),
                                       "r" + std::to_string(round)));
    }
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  LIQUID_ASSERT_OK(log->Compact());
  const auto first = Materialize(log.get());
  auto stats = log->Compact();
  ASSERT_TRUE(stats.ok());
  const auto second = Materialize(log.get());
  EXPECT_EQ(first, second);
}

TEST_F(LogCompactionTest, ValueOnlyRecordsSurviveCompaction) {
  auto log = OpenCompactedLog();
  for (int i = 0; i < 50; ++i) {
    std::vector<Record> batch{Record::ValueOnly("event" + std::to_string(i))};
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  auto stats = log->Compact();
  ASSERT_TRUE(stats.ok());
  // Unkeyed records are never deduplicated.
  EXPECT_EQ(stats->records_before, stats->records_after);
}

TEST_F(LogCompactionTest, ZipfWorkloadShrinksDramatically) {
  auto log = OpenCompactedLog(2048);
  ZipfGenerator zipf(100, 0.99, 7);
  for (int i = 0; i < 100; ++i) {
    std::vector<Record> batch;
    for (int j = 0; j < 20; ++j) {
      batch.push_back(Record::KeyValue("user" + std::to_string(zipf.Next()),
                                       "profile-update"));
    }
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  const uint64_t before = log->size_bytes();
  LIQUID_ASSERT_OK(log->Compact());
  const uint64_t after = log->size_bytes();
  // 2000 skewed updates over <=100 keys: compaction removes the bulk.
  EXPECT_LT(after * 2, before);
}

TEST_F(LogCompactionTest, ReadAfterCompactionAcrossReopen) {
  {
    auto log = OpenCompactedLog();
    for (int round = 0; round < 10; ++round) {
      std::vector<Record> batch;
      for (int k = 0; k < 5; ++k) {
        batch.push_back(Record::KeyValue("key" + std::to_string(k),
                                         "r" + std::to_string(round)));
      }
      LIQUID_ASSERT_OK(log->AppendBatch(&batch));
    }
    LIQUID_ASSERT_OK(log->Compact());
  }
  auto log = OpenCompactedLog();
  const auto view = Materialize(log.get());
  EXPECT_EQ(view.size(), 5u);
  for (const auto& [key, value] : view) EXPECT_EQ(value.first, "r9");
}

TEST_F(LogCompactionTest, CompactedRecordsStayDurableAcrossACrash) {
  // Compaction rewrites the closed segments into a fresh, unsynced file.
  // Offsets acknowledged as durable before it must become durable again
  // before AwaitDurable says so, or a power loss right after the compaction
  // loses acked records.
  LogConfig config;
  config.segment_bytes = 1024;
  config.compaction_enabled = true;
  config.sync_mode = SyncMode::kGroup;
  std::set<std::string> keys;
  {
    auto opened = Log::Open(&disk_, nullptr, "c0/", config, &clock_);
    LIQUID_ASSERT_OK(opened.status());
    std::unique_ptr<Log> log = std::move(opened).value();
    for (int i = 0; i < 60; ++i) {
      const std::string key = "key" + std::to_string(i % 10);
      keys.insert(key);
      // ~180-byte frames: the active segment holds fewer than 10 keys.
      std::vector<Record> batch{Record::KeyValue(
          key, "v" + std::to_string(i) + std::string(120, 'x'))};
      LIQUID_ASSERT_OK(log->AppendBatch(&batch));
    }
    const int64_t end = log->end_offset();
    LIQUID_ASSERT_OK(log->AwaitDurable(end));
    ASSERT_GT(log->segment_count(), 2);
    LIQUID_ASSERT_OK(log->Compact());
    LIQUID_ASSERT_OK(log->AwaitDurable(end));
    disk_.SimulateCrash();
  }
  auto log = OpenCompactedLog();
  const auto view = Materialize(log.get());
  std::set<std::string> survived;
  for (const auto& [key, value] : view) survived.insert(key);
  EXPECT_EQ(survived, keys);
}

}  // namespace
}  // namespace liquid::storage
