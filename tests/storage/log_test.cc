#include "storage/log.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/clock.h"
#include "common/metrics.h"

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

class LogTest : public ::testing::Test {
 protected:
  std::unique_ptr<Log> OpenLog(const LogConfig& config,
                               const std::string& prefix = "p0/") {
    auto log = Log::Open(&disk_, nullptr, prefix, config, &clock_);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return std::move(log).value();
  }

  MemDisk disk_;
  SimulatedClock clock_{1000};
};

TEST_F(LogTest, AppendAssignsConsecutiveOffsets) {
  auto log = OpenLog(LogConfig{});
  auto batch = KeyedBatch(5);
  ASSERT_TRUE(log->AppendBatch(&batch).ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[i].offset, i);
  EXPECT_EQ(log->end_offset(), 5);

  auto batch2 = KeyedBatch(3);
  auto base = log->AppendBatch(&batch2);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->base_offset(), 5);
  EXPECT_EQ(log->end_offset(), 8);
}

TEST_F(LogTest, AppendStampsClockTime) {
  auto log = OpenLog(LogConfig{});
  clock_.SetMs(123456);
  auto batch = KeyedBatch(1);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  EXPECT_EQ(batch[0].timestamp_ms, 123456);
}

TEST_F(LogTest, ExplicitTimestampPreserved) {
  auto log = OpenLog(LogConfig{});
  std::vector<Record> batch{Record::KeyValue("k", "v", 42)};
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*log, 0, 1 << 20, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp_ms, 42);
}

TEST_F(LogTest, RollsSegmentsAtConfiguredSize) {
  LogConfig config;
  config.segment_bytes = 512;
  auto log = OpenLog(config);
  for (int i = 0; i < 20; ++i) {
    auto batch = KeyedBatch(5);
    ASSERT_TRUE(log->AppendBatch(&batch).ok());
  }
  EXPECT_GT(log->segment_count(), 3);
  // All data still readable across segment boundaries.
  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(*log, 0, 10 << 20, &out).ok());
  EXPECT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i].offset, i);
}

TEST_F(LogTest, BudgetedReadsNeverSkipPastASegmentBoundary) {
  // A read that fills its byte budget inside a closed segment must stop
  // there, not append the next segment's first record and skip the rest of
  // the current one. Checked for one ReadEncoded step and for the
  // multi-step gather Broker::Fetch runs (ReadEncodedRange), on the copying
  // path (no page cache) and on pinned pages (one page per step).
  constexpr size_t kBudget = 300;  // A fraction of one segment.
  PageCache cache({}, &clock_);
  for (PageCache* with : {static_cast<PageCache*>(nullptr), &cache}) {
    SCOPED_TRACE(with == nullptr ? "copying" : "pinned");
    LogConfig config;
    config.segment_bytes = 1024;
    std::unique_ptr<Log> log =
        std::move(Log::Open(&disk_, with, with == nullptr ? "copy/" : "pin/",
                            config, &clock_))
            .value();
    for (int i = 0; i < 40; ++i) {
      auto batch = KeyedBatch(5, "key-" + std::to_string(i) + "-");
      LIQUID_ASSERT_OK(log->AppendBatch(&batch));
    }
    ASSERT_GT(log->segment_count(), 3);
    const int64_t end = log->end_offset();

    for (int64_t offset = 0; offset < end;) {
      EncodedBatch batch;
      LIQUID_ASSERT_OK(log->ReadEncoded(offset, kBudget, &batch));
      ASSERT_FALSE(batch.empty()) << "at " << offset;
      for (size_t i = 0; i < batch.frames().size(); ++i) {
        ASSERT_EQ(batch.frames()[i].offset, offset + static_cast<int64_t>(i))
            << "ReadEncoded from " << offset;
      }
      offset = batch.last_offset() + 1;
    }
    for (int64_t offset = 0; offset < end;) {
      std::vector<EncodedBatch> batches;
      auto next = log->ReadEncodedRange(offset, end, kBudget, &batches);
      LIQUID_ASSERT_OK(next.status());
      ASSERT_FALSE(batches.empty()) << "at " << offset;
      int64_t expected = offset;
      for (const EncodedBatch& batch : batches) {
        for (const BatchFrame& frame : batch.frames()) {
          ASSERT_EQ(frame.offset, expected++)
              << "ReadEncodedRange from " << offset;
        }
      }
      ASSERT_EQ(*next, expected);
      offset = *next;
    }
  }
}

TEST_F(LogTest, ReadEncodedRangeStopsAtItsBound) {
  auto log = OpenLog(LogConfig{});
  auto batch = KeyedBatch(10);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  std::vector<EncodedBatch> batches;
  auto next = log->ReadEncodedRange(2, 7, 1 << 20, &batches);
  LIQUID_ASSERT_OK(next.status());
  EXPECT_EQ(*next, 7);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].base_offset(), 2);
  EXPECT_EQ(batches[0].last_offset(), 6);
  // Nothing below the bound: nothing gathered, the cursor stays put.
  batches.clear();
  next = log->ReadEncodedRange(7, 7, 1 << 20, &batches);
  LIQUID_ASSERT_OK(next.status());
  EXPECT_EQ(*next, 7);
  EXPECT_TRUE(batches.empty());
}

TEST_F(LogTest, ReadDecodesEveryRecordPastPinnedPagesAndGaps) {
  // Over a cache-resident log each zero-copy step returns at most one page,
  // so a 1 MiB gather (ReadEncodedRange, which Broker::Fetch runs) must keep
  // walking across pages, compaction gaps and segments until the log ends.
  PageCache cache({}, &clock_);
  LogConfig config;
  config.segment_bytes = 1024;  // Only the last batch stays uncompacted.
  config.compaction_enabled = true;
  std::unique_ptr<Log> log =
      std::move(Log::Open(&disk_, &cache, "pinned/", config, &clock_)).value();
  std::vector<Record> appended;
  for (int b = 0; b < 40; ++b) {
    std::vector<Record> batch = KeyedBatch(8, "k" + std::to_string(b % 5));
    for (Record& r : batch) r.value.resize(200, 'v');
    batch[1].trace_id = 77 + b;  // Traced: the frame carries a trace block.
    batch[2].producer_id = 5;
    batch[2].sequence = b;
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
    appended.insert(appended.end(), batch.begin(), batch.end());
  }
  LIQUID_ASSERT_OK(log->Compact());
  ASSERT_GE(log->segment_count(), 2);

  // Expected: the newest record per key. Equal wire encodings mean equal
  // fields, trace block included.
  std::map<std::string, Record> latest;
  for (const Record& r : appended) latest[r.key] = r;
  std::vector<Record> expected;
  for (const Record& r : appended) {
    if (latest[r.key].offset == r.offset) expected.push_back(r);
  }
  ASSERT_LT(expected.size(), appended.size());  // Compaction left gaps.
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*log, 0, 1 << 20, &out));
  EXPECT_EQ(EncodedBatch::Encode(out).bytes().ToString(),
            EncodedBatch::Encode(expected).bytes().ToString());
}

TEST_F(LogTest, BitFlipSurfacesAsCorruptionOnRead) {
  // The segment scan is the one CRC check between disk and a Record; the
  // decode after it does not re-check, so the scan must still catch this.
  auto log = OpenLog(LogConfig{}, "flip/");
  auto batch = KeyedBatch(10);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));

  auto file = disk_.OpenOrCreate("flip/00000000000000000000.log");
  LIQUID_ASSERT_OK(file.status());
  std::string bytes;
  LIQUID_ASSERT_OK((*file)->ReadAt(0, (*file)->Size(), &bytes));
  bytes[10] ^= 0x01;  // Inside the first record's CRC-covered body.
  LIQUID_ASSERT_OK((*file)->Truncate(0));
  LIQUID_ASSERT_OK((*file)->Append(bytes));

  std::vector<Record> out;
  const Status read = ReadRecords(*log, 0, 1 << 20, &out);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_TRUE(out.empty());
}

TEST_F(LogTest, ReadPastEndReturnsEmpty) {
  auto log = OpenLog(LogConfig{});
  auto batch = KeyedBatch(3);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(*log, 3, 1 << 20, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(ReadRecords(*log, 1000, 1 << 20, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(LogTest, ReopenRecoversAcrossSegments) {
  LogConfig config;
  config.segment_bytes = 512;
  {
    auto log = OpenLog(config);
    for (int i = 0; i < 10; ++i) {
      auto batch = KeyedBatch(5);
      LIQUID_ASSERT_OK(log->AppendBatch(&batch));
    }
    EXPECT_EQ(log->end_offset(), 50);
  }
  auto reopened = OpenLog(config);
  EXPECT_EQ(reopened->end_offset(), 50);
  EXPECT_GT(reopened->segment_count(), 1);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*reopened, 17, 10 << 20, &out));
  ASSERT_EQ(out.size(), 33u);
  EXPECT_EQ(out.front().offset, 17);
}

TEST_F(LogTest, AppendWithOffsetsFollowsLeader) {
  // A follower appends the leader's batch at the leader's offsets, and
  // refuses a batch that overlaps what it already holds.
  auto leader = OpenLog(LogConfig{}, "leader/");
  auto follower = OpenLog(LogConfig{}, "follower/");
  auto records = KeyedBatch(10);
  auto batch = leader->AppendBatch(&records);
  LIQUID_ASSERT_OK(batch.status());
  ASSERT_TRUE(follower->AppendEncoded(*batch).ok());
  EXPECT_EQ(follower->end_offset(), 10);

  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*follower, 0, 1 << 20, &out));
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].offset, i);
    EXPECT_EQ(out[i].key, records[i].key);
    EXPECT_EQ(out[i].value, records[i].value);
  }

  EXPECT_TRUE(follower->AppendEncoded(*batch).IsInvalidArgument());
}

TEST_F(LogTest, AppendEncodedFollowsLeader) {
  auto leader = OpenLog(LogConfig{}, "leader/");
  auto follower = OpenLog(LogConfig{}, "follower/");
  auto records = KeyedBatch(10);
  auto batch = leader->AppendBatch(&records);
  LIQUID_ASSERT_OK(batch.status());
  ASSERT_TRUE(follower->AppendEncoded(*batch).ok());
  EXPECT_EQ(follower->end_offset(), 10);

  // The leader's bytes landed verbatim.
  EncodedBatch leader_read;
  EncodedBatch follower_read;
  LIQUID_ASSERT_OK(leader->ReadEncoded(0, 1 << 20, &leader_read));
  LIQUID_ASSERT_OK(follower->ReadEncoded(0, 1 << 20, &follower_read));
  EXPECT_EQ(follower_read.bytes().ToString(), leader_read.bytes().ToString());

  // Overlapping replication is rejected.
  EXPECT_TRUE(follower->AppendEncoded(*batch).IsInvalidArgument());

  // Local appends (e.g. after promotion to leader) continue past the
  // replicated range.
  auto local = KeyedBatch(2, "local");
  auto base = follower->AppendBatch(&local);
  LIQUID_ASSERT_OK(base.status());
  EXPECT_EQ(base->base_offset(), 10);
}

TEST_F(LogTest, ProducerAppendTakesThePipelineLockThreeTimesPerBatch) {
  // Reserve, wait-for-turn and commit: the producer_append_mu_acquisitions
  // counter the benchmarks report as append locks per batch.
  auto log = OpenLog(LogConfig{}, "locks/");
  Counter* locks = MetricsRegistry::Default()->GetCounter(
      "liquid.log.locks.producer_append_mu_acquisitions");
  const int64_t before = locks->value();
  constexpr int kBatches = 50;
  for (int b = 0; b < kBatches; ++b) {
    auto batch = KeyedBatch(4);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch).status());
  }
  EXPECT_EQ(locks->value() - before, 3 * kBatches);
}

TEST_F(LogTest, TruncateDropsSuffix) {
  LogConfig config;
  config.segment_bytes = 512;
  auto log = OpenLog(config);
  for (int i = 0; i < 10; ++i) {
    auto batch = KeyedBatch(5);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  ASSERT_TRUE(log->Truncate(23).ok());
  EXPECT_EQ(log->end_offset(), 23);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*log, 0, 10 << 20, &out));
  ASSERT_EQ(out.size(), 23u);
  EXPECT_EQ(out.back().offset, 22);

  // New appends continue from the truncation point.
  auto batch = KeyedBatch(2);
  auto base = log->AppendBatch(&batch);
  EXPECT_EQ(base->base_offset(), 23);
}

TEST_F(LogTest, TruncateToZeroEmptiesLog) {
  auto log = OpenLog(LogConfig{});
  auto batch = KeyedBatch(5);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  ASSERT_TRUE(log->Truncate(0).ok());
  EXPECT_EQ(log->end_offset(), 0);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(*log, 0, 1 << 20, &out));
  EXPECT_TRUE(out.empty());
}

TEST_F(LogTest, TruncatePastEndIsNoOp) {
  auto log = OpenLog(LogConfig{});
  auto batch = KeyedBatch(5);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  ASSERT_TRUE(log->Truncate(100).ok());
  EXPECT_EQ(log->end_offset(), 5);
}

TEST_F(LogTest, OffsetForTimestampAcrossSegments) {
  LogConfig config;
  config.segment_bytes = 512;
  auto log = OpenLog(config);
  for (int i = 0; i < 10; ++i) {
    clock_.SetMs(10000 + i * 100);
    auto batch = KeyedBatch(5);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  // Each batch of 5 shares its timestamp: 10000, 10100, ...
  EXPECT_EQ(*log->OffsetForTimestamp(10000), 0);
  EXPECT_EQ(*log->OffsetForTimestamp(10250), 15);
  EXPECT_EQ(*log->OffsetForTimestamp(10900), 45);
  EXPECT_TRUE(log->OffsetForTimestamp(99999).status().IsNotFound());
}

TEST_F(LogTest, SizeBytesGrowsWithData) {
  auto log = OpenLog(LogConfig{});
  EXPECT_EQ(log->size_bytes(), 0u);
  auto batch = KeyedBatch(10);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  EXPECT_GT(log->size_bytes(), 100u);
}

TEST_F(LogTest, TimeRetentionDeletesOldSegments) {
  LogConfig config;
  config.segment_bytes = 512;
  config.retention_ms = 10000;
  auto log = OpenLog(config);
  clock_.SetMs(1000);
  for (int i = 0; i < 10; ++i) {
    auto batch = KeyedBatch(5);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  }
  const int before = log->segment_count();
  ASSERT_GT(before, 2);

  clock_.SetMs(1000 + 20000);  // Everything is now older than retention.
  auto deleted = log->ApplyRetention();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, before - 1);  // Active segment never deleted.
  EXPECT_EQ(log->segment_count(), 1);
  EXPECT_GT(log->start_offset(), 0);

  // Reads below the new start offset are clamped forward.
  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(*log, 0, 10 << 20, &out).ok());
  if (!out.empty()) {
    EXPECT_GE(out.front().offset, log->start_offset());
  }
}

TEST_F(LogTest, SizeRetentionBoundsLog) {
  LogConfig config;
  config.segment_bytes = 512;
  config.retention_bytes = 2048;
  auto log = OpenLog(config);
  for (int i = 0; i < 40; ++i) {
    auto batch = KeyedBatch(5);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch));
    LIQUID_ASSERT_OK(log->ApplyRetention());
  }
  EXPECT_LE(log->size_bytes(), 3000u);  // Bounded near the target.
  EXPECT_GT(log->start_offset(), 0);
}

TEST_F(LogTest, RetentionKeepsFreshData) {
  LogConfig config;
  config.segment_bytes = 512;
  config.retention_ms = 1000000;
  auto log = OpenLog(config);
  auto batch = KeyedBatch(50);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch));
  auto deleted = log->ApplyRetention();
  EXPECT_EQ(*deleted, 0);
  EXPECT_EQ(log->start_offset(), 0);
}

TEST_F(LogTest, EmptyAppendRejected) {
  auto log = OpenLog(LogConfig{});
  std::vector<Record> empty;
  EXPECT_TRUE(log->AppendBatch(&empty).status().IsInvalidArgument());
}

}  // namespace
}  // namespace liquid::storage
