#include "storage/record_batch.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/record.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

std::vector<Record> SampleRecords() {
  std::vector<Record> records;
  Record plain = Record::KeyValue("alpha", "value-one", /*ts_ms=*/100);
  plain.offset = 10;
  plain.leader_epoch = 3;
  records.push_back(plain);

  Record traced = Record::KeyValue("beta", "value-two", /*ts_ms=*/101);
  traced.offset = 11;
  traced.leader_epoch = 3;
  traced.trace_id = 0xfeedbeef;
  traced.span_id = 0x1234;
  traced.ingest_us = 555;
  records.push_back(traced);

  Record tombstone = Record::Tombstone("gamma", /*ts_ms=*/102);
  tombstone.offset = 12;
  records.push_back(tombstone);

  Record control = Record::ControlMarker(/*pid=*/42, /*committed=*/true);
  control.offset = 13;
  records.push_back(control);
  return records;
}

TEST(EncodedBatchTest, EncodeMatchesPerRecordEncoding) {
  const std::vector<Record> records = SampleRecords();
  EncodedBatch batch = EncodedBatch::Encode(records);

  std::string expected;
  for (const Record& record : records) EncodeRecord(record, &expected);
  const Slice bytes = batch.bytes();
  EXPECT_EQ(std::string(bytes.data(), bytes.size()), expected);
  EXPECT_EQ(batch.size_bytes(), expected.size());
  EXPECT_EQ(batch.record_count(), records.size());
  EXPECT_EQ(batch.base_offset(), 10);
  EXPECT_EQ(batch.last_offset(), 13);
}

TEST(EncodedBatchTest, FramesCarryHeaderFields) {
  EncodedBatch batch = EncodedBatch::Encode(SampleRecords());
  const auto& frames = batch.frames();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].offset, 10);
  EXPECT_EQ(frames[0].timestamp_ms, 100);
  EXPECT_EQ(frames[0].leader_epoch, 3);
  EXPECT_FALSE(frames[0].traced);
  EXPECT_TRUE(frames[1].traced);
  EXPECT_FALSE(frames[1].is_control);
  EXPECT_TRUE(frames[3].is_control);
  // Frames tile the buffer contiguously.
  size_t pos = 0;
  for (const BatchFrame& frame : frames) {
    EXPECT_EQ(frame.pos, pos);
    pos += frame.len;
  }
  EXPECT_EQ(pos, batch.size_bytes());
}

TEST(EncodedBatchTest, DecodeRoundTrip) {
  const std::vector<Record> records = SampleRecords();
  EncodedBatch batch = EncodedBatch::Encode(records);

  std::vector<Record> decoded;
  LIQUID_ASSERT_OK(batch.DecodeAll(&decoded));
  ASSERT_EQ(decoded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].offset, records[i].offset);
    EXPECT_EQ(decoded[i].key, records[i].key);
    EXPECT_EQ(decoded[i].value, records[i].value);
    EXPECT_EQ(decoded[i].trace_id, records[i].trace_id);
    EXPECT_EQ(decoded[i].is_control, records[i].is_control);
  }
  auto one = batch.DecodeFrame(1);
  LIQUID_ASSERT_OK(one);
  EXPECT_EQ(one->span_id, records[1].span_id);
  EXPECT_EQ(one->ingest_us, records[1].ingest_us);
}

TEST(EncodedBatchTest, TrimAndSliceAreMetadataOnly) {
  EncodedBatch batch = EncodedBatch::Encode(SampleRecords());
  const std::shared_ptr<const std::string> buffer = batch.buffer();

  EncodedBatch upper = batch;
  upper.SliceFrom(12);  // Drop offsets 10, 11.
  EXPECT_EQ(upper.base_offset(), 12);
  EXPECT_EQ(upper.record_count(), 2u);
  EXPECT_EQ(upper.buffer().get(), buffer.get());  // Same buffer, no copy.

  EncodedBatch lower = batch;
  lower.TrimToOffset(12);  // Drop offsets 12, 13.
  EXPECT_EQ(lower.last_offset(), 11);
  EXPECT_EQ(lower.record_count(), 2u);

  // The two halves' bytes partition the original exactly.
  const Slice all = batch.bytes();
  const Slice head = lower.bytes();
  const Slice tail = upper.bytes();
  EXPECT_EQ(std::string(head.data(), head.size()) +
                std::string(tail.data(), tail.size()),
            std::string(all.data(), all.size()));

  EncodedBatch emptied = batch;
  emptied.TrimToOffset(10);
  EXPECT_TRUE(emptied.empty());
  EXPECT_EQ(emptied.base_offset(), -1);
}

TEST(EncodedBatchTest, AppendBatchThenReadEncodedIsByteIdentical) {
  MemDisk disk;
  SimulatedClock clock(7);
  auto log = Log::Open(&disk, nullptr, "l/", LogConfig{}, &clock);
  LIQUID_ASSERT_OK(log);

  std::vector<Record> records;
  for (int i = 0; i < 20; ++i) {
    Record r = Record::KeyValue("k" + std::to_string(i % 5),
                                "v" + std::to_string(i));
    if (i % 4 == 0) {
      r.trace_id = 1000 + static_cast<uint64_t>(i);
      r.span_id = 2000 + static_cast<uint64_t>(i);
      r.ingest_us = 3000 + i;
    }
    records.push_back(std::move(r));
  }
  auto appended = (*log)->AppendBatch(&records);
  LIQUID_ASSERT_OK(appended);
  EXPECT_EQ(appended->base_offset(), 0);
  EXPECT_EQ(appended->record_count(), 20u);

  // The shared-buffer read returns exactly the bytes the append encoded...
  EncodedBatch read_back;
  LIQUID_ASSERT_OK((*log)->ReadEncoded(0, 1 << 20, &read_back));
  const Slice wrote = appended->bytes();
  const Slice read = read_back.bytes();
  EXPECT_EQ(std::string(read.data(), read.size()),
            std::string(wrote.data(), wrote.size()));

  // ...and those bytes are the wire encoding of the records as appended
  // (AppendBatch stamps offsets and timestamps in place).
  std::string expected;
  for (const Record& record : records) EncodeRecord(record, &expected);
  EXPECT_EQ(std::string(read.data(), read.size()), expected);
}

TEST(EncodedBatchTest, ReadEncodedHonoursOffsetAndMaxBytes) {
  MemDisk disk;
  SimulatedClock clock(7);
  LogConfig config;
  config.segment_bytes = 256;  // Force several segments.
  auto log = Log::Open(&disk, nullptr, "l/", config, &clock);
  LIQUID_ASSERT_OK(log);
  for (int i = 0; i < 50; ++i) {
    std::vector<Record> one{Record::KeyValue("k", "v" + std::to_string(i))};
    LIQUID_ASSERT_OK((*log)->AppendBatch(&one));
  }

  EncodedBatch from_middle;
  LIQUID_ASSERT_OK((*log)->ReadEncoded(17, 1 << 20, &from_middle));
  EXPECT_EQ(from_middle.base_offset(), 17);
  EXPECT_EQ(from_middle.last_offset(), 49);

  // max_bytes caps the span but always admits at least one record.
  EncodedBatch tiny;
  LIQUID_ASSERT_OK((*log)->ReadEncoded(0, 1, &tiny));
  EXPECT_EQ(tiny.record_count(), 1u);
  EXPECT_EQ(tiny.base_offset(), 0);

  // Past the end: empty batch, not an error (tail-follow contract).
  EncodedBatch past;
  LIQUID_ASSERT_OK((*log)->ReadEncoded(50, 1 << 20, &past));
  EXPECT_TRUE(past.empty());
}

}  // namespace
}  // namespace liquid::storage
