#include "storage/log_segment.h"

#include <gtest/gtest.h>

#include <memory>

#include "test_util.h"

namespace liquid::storage {
namespace {

EncodedBatch MakeBatch(int64_t base_offset, int count, int64_t base_ts = 1000) {
  std::vector<Record> out;
  for (int i = 0; i < count; ++i) {
    Record r = Record::KeyValue("k" + std::to_string(base_offset + i),
                                "value-" + std::to_string(i), base_ts + i);
    r.offset = base_offset + i;
    out.push_back(std::move(r));
  }
  return EncodedBatch::Encode(out);
}

// The segment only speaks encoded frames; decode them as log readers do.
Status ReadRecords(const LogSegment& segment, int64_t from, size_t max_bytes,
                   std::vector<Record>* out) {
  std::string buf;
  std::vector<BatchFrame> frames;
  LIQUID_RETURN_NOT_OK(
      segment.ReadEncoded(segment.SpanFrom(from), max_bytes, &buf, &frames));
  return EncodedBatch::FromParts(
             std::make_shared<const std::string>(std::move(buf)),
             std::move(frames))
      .DecodeAll(out);
}

class LogSegmentTest : public ::testing::Test {
 protected:
  MemDisk disk_;
  LogSegment::Config config_{256};  // Small index interval to exercise it.
};

TEST_F(LogSegmentTest, AppendAndReadAll) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  ASSERT_TRUE(segment.ok());
  ASSERT_TRUE((*segment)->AppendEncoded(MakeBatch(0, 50)).ok());
  EXPECT_EQ((*segment)->next_offset(), 50);

  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(**segment, 0, 1 << 20, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i].offset, i);
}

TEST_F(LogSegmentTest, ReadFromMiddle) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 100)));
  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(**segment, 73, 1 << 20, &out).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().offset, 73);
  EXPECT_EQ(out.back().offset, 99);
}

TEST_F(LogSegmentTest, MaxBytesLimitsBatchButReturnsAtLeastOne) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 100)));
  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(**segment, 0, 1, &out).ok());
  EXPECT_EQ(out.size(), 1u);  // At least one even when max_bytes tiny.

  out.clear();
  ASSERT_TRUE(ReadRecords(**segment, 0, 200, &out).ok());
  EXPECT_LT(out.size(), 100u);  // Capped well below everything.
  EXPECT_GE(out.size(), 1u);
}

TEST_F(LogSegmentTest, NonZeroBaseOffset) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 1000, config_);
  ASSERT_TRUE((*segment)->AppendEncoded(MakeBatch(1000, 10)).ok());
  EXPECT_EQ((*segment)->base_offset(), 1000);
  EXPECT_EQ((*segment)->next_offset(), 1010);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(**segment, 1005, 1 << 20, &out));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().offset, 1005);
}

TEST_F(LogSegmentTest, RejectsNonMonotonicAppend) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 10)));
  EXPECT_TRUE((*segment)->AppendEncoded(MakeBatch(5, 3)).IsInvalidArgument());
}

TEST_F(LogSegmentTest, OffsetGapsAreLegal) {
  // Compaction produces gaps: offsets 0, 5, 9.
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  std::vector<Record> sparse;
  for (int64_t offset : {0, 5, 9}) {
    Record r = Record::KeyValue("k", "v", 100 + offset);
    r.offset = offset;
    sparse.push_back(r);
  }
  ASSERT_TRUE((*segment)->AppendEncoded(EncodedBatch::Encode(sparse)).ok());
  EXPECT_EQ((*segment)->next_offset(), 10);

  // A read from inside a gap returns the next real record.
  std::vector<Record> out;
  ASSERT_TRUE(ReadRecords(**segment, 3, 1 << 20, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].offset, 5);
  EXPECT_EQ(out[1].offset, 9);
}

TEST_F(LogSegmentTest, RecoverRebuildsStateFromDisk) {
  LIQUID_ASSERT_OK((*LogSegment::Open(&disk_, nullptr, "t/", 0, config_))
      ->AppendEncoded(MakeBatch(0, 40)));
  // Reopen: Recover() scans the file.
  auto reopened = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->next_offset(), 40);
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(**reopened, 20, 1 << 20, &out));
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out.front().offset, 20);
}

TEST_F(LogSegmentTest, RecoverTruncatesCorruptTail) {
  {
    auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
    LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 10)));
  }
  // Simulate a torn write: append garbage to the raw file.
  {
    auto file = disk_.OpenOrCreate("t/00000000000000000000.log");
    LIQUID_ASSERT_OK((*file)->Append("garbage-that-is-not-a-record"));
  }
  auto reopened = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->next_offset(), 10);  // Garbage dropped.
  std::vector<Record> out;
  LIQUID_ASSERT_OK(ReadRecords(**reopened, 0, 1 << 20, &out));
  EXPECT_EQ(out.size(), 10u);

  // The file itself was truncated back to the last intact record.
  auto file = disk_.OpenOrCreate("t/00000000000000000000.log");
  EXPECT_EQ((*file)->Size(), (*reopened)->size_bytes());
}

TEST_F(LogSegmentTest, BitFlippedRecordSurfacesAsCorruptionOnRead) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 10)));

  // Flip one bit inside the first record's body (past the 4-byte length and
  // 4-byte CRC header) on the shared in-memory file. The already-open segment
  // sees it on the next read and must report Corruption, not return bad data.
  auto file = disk_.OpenOrCreate((*segment)->file_name());
  std::string bytes;
  LIQUID_ASSERT_OK((*file)->ReadAt(0, (*file)->Size(), &bytes));
  bytes[10] ^= 0x01;
  LIQUID_ASSERT_OK((*file)->Truncate(0));
  LIQUID_ASSERT_OK((*file)->Append(bytes));

  // The frame scan itself must catch it (decoding after it does not check).
  std::string buf;
  std::vector<BatchFrame> frames;
  const Status read =
      (*segment)->ReadEncoded((*segment)->SpanFrom(0), 1 << 20, &buf, &frames);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
}

TEST_F(LogSegmentTest, OffsetForTimestampFindsFirstAtOrAfter) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 100, 5000)));  // ts 5000..5099.
  EXPECT_EQ(*(*segment)->OffsetForTimestamp(5000), 0);
  EXPECT_EQ(*(*segment)->OffsetForTimestamp(5050), 50);
  EXPECT_EQ(*(*segment)->OffsetForTimestamp(4000), 0);
  EXPECT_TRUE((*segment)->OffsetForTimestamp(6000).status().IsNotFound());
}

TEST_F(LogSegmentTest, DropRemovesFile) {
  auto segment = LogSegment::Open(&disk_, nullptr, "t/", 0, config_);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 5)));
  const std::string name = (*segment)->file_name();
  EXPECT_TRUE(disk_.Exists(name));
  ASSERT_TRUE((*segment)->Drop().ok());
  EXPECT_FALSE(disk_.Exists(name));
}

class IndexIntervalTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexIntervalTest, ReadsCorrectAtAnyIndexGranularity) {
  MemDisk disk;
  LogSegment::Config config{GetParam()};
  auto segment = LogSegment::Open(&disk, nullptr, "t/", 0, config);
  LIQUID_ASSERT_OK((*segment)->AppendEncoded(MakeBatch(0, 200)));
  for (int64_t from : {0, 1, 50, 123, 199}) {
    std::vector<Record> out;
    ASSERT_TRUE(ReadRecords(**segment, from, 1 << 20, &out).ok());
    ASSERT_EQ(out.size(), static_cast<size_t>(200 - from)) << "from=" << from;
    EXPECT_EQ(out.front().offset, from);
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, IndexIntervalTest,
                         ::testing::Values(size_t{0}, size_t{64}, size_t{4096},
                                           size_t{1} << 30));

}  // namespace
}  // namespace liquid::storage
