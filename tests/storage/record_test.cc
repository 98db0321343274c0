#include "storage/record.h"

#include <gtest/gtest.h>

#include "common/coding.h"

namespace liquid::storage {
namespace {

TEST(RecordTest, KeyValueRoundTrip) {
  Record in = Record::KeyValue("user42", "profile-data", 1234);
  in.offset = 99;
  std::string buf;
  EncodeRecord(in, &buf);
  EXPECT_EQ(buf.size(), in.EncodedSize());

  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_EQ(out.offset, 99);
  EXPECT_EQ(out.timestamp_ms, 1234);
  EXPECT_EQ(out.key, "user42");
  EXPECT_EQ(out.value, "profile-data");
  EXPECT_TRUE(out.has_key);
  EXPECT_FALSE(out.is_tombstone);
  EXPECT_EQ(out.producer_id, kNoProducerId);
  EXPECT_TRUE(input.empty());
}

TEST(RecordTest, TombstoneRoundTrip) {
  Record in = Record::Tombstone("deleted-key", 5);
  in.offset = 1;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_TRUE(out.is_tombstone);
  EXPECT_EQ(out.key, "deleted-key");
  EXPECT_TRUE(out.value.empty());
}

TEST(RecordTest, ValueOnlyHasNoKey) {
  Record in = Record::ValueOnly("payload");
  in.offset = 0;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_FALSE(out.has_key);
  EXPECT_EQ(out.value, "payload");
}

TEST(RecordTest, ProducerMetadataRoundTrip) {
  Record in = Record::KeyValue("k", "v");
  in.offset = 7;
  in.producer_id = 12345;
  in.sequence = 42;
  in.transactional = true;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_EQ(out.producer_id, 12345);
  EXPECT_EQ(out.sequence, 42);
  EXPECT_TRUE(out.transactional);
}

TEST(RecordTest, LeaderEpochAndControlRoundTrip) {
  Record in = Record::ControlMarker(555, /*committed=*/true);
  in.offset = 3;
  in.leader_epoch = 12;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_TRUE(out.is_control);
  EXPECT_EQ(out.producer_id, 555);
  EXPECT_EQ(out.leader_epoch, 12);
  EXPECT_EQ(out.value, "commit");
  EXPECT_FALSE(out.has_key);
}

TEST(RecordTest, DefaultLeaderEpochIsMinusOne) {
  Record in = Record::KeyValue("k", "v");
  in.offset = 0;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_EQ(out.leader_epoch, -1);
  EXPECT_FALSE(out.is_control);
}

TEST(RecordTest, EmptyKeyAndValue) {
  Record in = Record::KeyValue("", "");
  in.offset = 0;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_TRUE(out.key.empty());
  EXPECT_TRUE(out.value.empty());
  EXPECT_TRUE(out.has_key);
}

TEST(RecordTest, TracedRecordRoundTrip) {
  Record in = Record::KeyValue("k", "v", 99);
  in.offset = 5;
  in.trace_id = 0xfeedfacecafebeefull;
  in.span_id = 77;
  in.ingest_us = 1700000000000123;
  ASSERT_TRUE(in.traced());

  std::string buf;
  EncodeRecord(in, &buf);
  EXPECT_EQ(buf.size(), in.EncodedSize());

  // The trace block adds exactly 24 bytes over the untraced encoding.
  Record plain = in;
  plain.trace_id = 0;
  std::string plain_buf;
  EncodeRecord(plain, &plain_buf);
  EXPECT_EQ(buf.size(), plain_buf.size() + 24);

  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_TRUE(out.traced());
  EXPECT_EQ(out.trace_id, 0xfeedfacecafebeefull);
  EXPECT_EQ(out.span_id, 77u);
  EXPECT_EQ(out.ingest_us, 1700000000000123);
  EXPECT_EQ(out.key, "k");
  EXPECT_EQ(out.value, "v");
  EXPECT_TRUE(input.empty());
}

TEST(RecordTest, UntracedEncodingUnchangedByTraceFields) {
  // A record that never passed the sampler encodes byte-identically to the
  // pre-tracing wire format: no traced attribute bit, no trace block.
  Record in = Record::KeyValue("k", "v", 99);
  in.offset = 5;
  ASSERT_FALSE(in.traced());
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_FALSE(out.traced());
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.span_id, 0u);
  EXPECT_EQ(out.ingest_us, 0);
}

TEST(RecordTest, CorruptedByteDetectedByCrc) {
  Record in = Record::KeyValue("key", "value");
  in.offset = 3;
  std::string buf;
  EncodeRecord(in, &buf);
  // Flip one byte in the body (past length+crc framing).
  buf[buf.size() - 1] ^= 0x01;
  Slice input(buf);
  Record out;
  EXPECT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).IsCorruption());
  // Unchecked, the same bytes decode: the flag alone catches the flip.
  Slice unchecked(buf);
  EXPECT_TRUE(DecodeRecord(&unchecked, &out, /*verify_crc=*/false).ok());
}

TEST(RecordTest, TruncatedBodyDetected) {
  Record in = Record::KeyValue("key", "a longer value to truncate");
  in.offset = 3;
  std::string buf;
  EncodeRecord(in, &buf);
  buf.resize(buf.size() - 5);
  Slice input(buf);
  Record out;
  EXPECT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).IsCorruption());
}

TEST(RecordTest, EmptyInputIsOutOfRange) {
  Slice input("");
  Record out;
  EXPECT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).IsOutOfRange());
}

TEST(RecordTest, BinarySafeKeyAndValue) {
  std::string key("\x00\x01\xff\x7f", 4);
  std::string value("\xde\xad\xbe\xef\x00", 5);
  Record in = Record::KeyValue(key, value);
  in.offset = 0;
  std::string buf;
  EncodeRecord(in, &buf);
  Slice input(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&input, &out, /*verify_crc=*/true).ok());
  EXPECT_EQ(out.key, key);
  EXPECT_EQ(out.value, value);
}

}  // namespace
}  // namespace liquid::storage
