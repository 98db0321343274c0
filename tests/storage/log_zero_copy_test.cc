// Zero-copy fetch (Log::ReadEncoded over cache-resident pages): the fast
// path must return byte-identical frames to the legacy copying path — same
// wire bytes, same framing metadata, traced records included — while the
// liquid.log.<name>.fetch_zero_copy_bytes / fetch_copied_bytes metric pair
// proves which path served the request.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "storage/disk.h"
#include "storage/log.h"
#include "storage/page_cache.h"
#include "storage/record_batch.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

std::string BatchBytes(const EncodedBatch& batch) {
  Slice s = batch.bytes();
  return std::string(s.data(), s.size());
}

class LogZeroCopyTest : public ::testing::Test {
 protected:
  /// A batch ending in a traced record, so the fast path parses the optional
  /// trace block too.
  std::vector<Record> MixedBatch(int count) {
    std::vector<Record> out;
    for (int i = 0; i < count; ++i) {
      out.push_back(Record::KeyValue("k" + std::to_string(i),
                                     "value-" + std::to_string(i)));
    }
    out.back().trace_id = 0xabcdef;
    return out;
  }

  std::unique_ptr<Log> OpenLog(PageCache* cache, const std::string& prefix) {
    auto log = Log::Open(&disk_, cache, prefix, LogConfig{}, &clock_);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return std::move(log).value();
  }

  Counter* MetricFor(const std::string& instance, const std::string& name) {
    return MetricsRegistry::Default()->GetCounter("liquid.log." + instance +
                                                  "." + name);
  }

  MemDisk disk_;
  SimulatedClock clock_{1000};
};

TEST_F(LogZeroCopyTest, CacheResidentFetchIsZeroCopyAndByteIdentical) {
  PageCache cache({}, &clock_);
  auto log = OpenLog(&cache, "zc0/");
  auto batch = MixedBatch(10);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch).status());

  Counter* zero_copy = MetricFor("zc0", "fetch_zero_copy_bytes");
  Counter* copied = MetricFor("zc0", "fetch_copied_bytes");
  const int64_t zero_before = zero_copy->value();
  const int64_t copied_before = copied->value();

  // Freshly appended bytes are cache-resident (write-through NoteAppend),
  // so this fetch must take the pinned-page path: >0 zero-copy bytes, 0
  // copied bytes.
  EncodedBatch fast;
  LIQUID_ASSERT_OK(log->ReadEncoded(0, 1 << 20, &fast));
  ASSERT_EQ(fast.record_count(), 10u);
  EXPECT_GT(zero_copy->value() - zero_before, 0);
  EXPECT_EQ(copied->value() - copied_before, 0);
  EXPECT_EQ(static_cast<size_t>(zero_copy->value() - zero_before),
            fast.size_bytes());

  // Legacy copying path over the same files: a second Log handle with no
  // cache cannot pin pages, so it gathers into a fresh buffer.
  auto legacy = OpenLog(nullptr, "zc0/");
  EncodedBatch slow;
  LIQUID_ASSERT_OK(legacy->ReadEncoded(0, 1 << 20, &slow));
  ASSERT_EQ(slow.record_count(), 10u);
  EXPECT_GT(copied->value() - copied_before, 0);

  // Byte identity: same wire bytes, same framing.
  EXPECT_EQ(BatchBytes(fast), BatchBytes(slow));
  for (size_t i = 0; i < fast.frames().size(); ++i) {
    EXPECT_EQ(fast.frames()[i].offset, slow.frames()[i].offset) << i;
    EXPECT_EQ(fast.frames()[i].len, slow.frames()[i].len) << i;
    EXPECT_EQ(fast.frames()[i].traced, slow.frames()[i].traced) << i;
  }

  // And the decoded records round-trip, traced record included.
  std::vector<Record> decoded;
  LIQUID_ASSERT_OK(fast.DecodeAll(&decoded));
  ASSERT_EQ(decoded.size(), 10u);
  EXPECT_EQ(decoded.back().trace_id, 0xabcdefu);
  EXPECT_EQ(decoded.front().key, "k0");
  EXPECT_EQ(decoded.back().value, "value-9");
}

TEST_F(LogZeroCopyTest, MidLogFetchSkipsLeadingFramesIdentically) {
  PageCache cache({}, &clock_);
  auto log = OpenLog(&cache, "zc1/");
  for (int i = 0; i < 3; ++i) {
    auto batch = MixedBatch(4);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch).status());
  }

  EncodedBatch fast;
  LIQUID_ASSERT_OK(log->ReadEncoded(5, 1 << 20, &fast));
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(fast.base_offset(), 5);
  EXPECT_EQ(fast.last_offset(), 11);

  auto legacy = OpenLog(nullptr, "zc1/");
  EncodedBatch slow;
  LIQUID_ASSERT_OK(legacy->ReadEncoded(5, 1 << 20, &slow));
  EXPECT_EQ(BatchBytes(fast), BatchBytes(slow));
}

TEST_F(LogZeroCopyTest, MaxBytesClampMatchesLegacyPath) {
  PageCache cache({}, &clock_);
  auto log = OpenLog(&cache, "zc2/");
  auto batch = MixedBatch(10);
  LIQUID_ASSERT_OK(log->AppendBatch(&batch).status());

  // A tiny budget still returns at least one record, exactly like the
  // copying path.
  EncodedBatch fast;
  LIQUID_ASSERT_OK(log->ReadEncoded(0, 1, &fast));
  auto legacy = OpenLog(nullptr, "zc2/");
  EncodedBatch slow;
  LIQUID_ASSERT_OK(legacy->ReadEncoded(0, 1, &slow));
  ASSERT_EQ(fast.record_count(), 1u);
  EXPECT_EQ(BatchBytes(fast), BatchBytes(slow));
}

TEST_F(LogZeroCopyTest, CacheMissFallsBackToCopyingPath) {
  // A one-page cache: appending past page 0 evicts it, so a fetch from
  // offset 0 misses and must fall back (counting copied bytes), yet still
  // returns the right records.
  PageCacheConfig config;
  config.page_size = 512;
  config.capacity_bytes = 512;
  config.flush_after_ms = 0;
  PageCache cache(config, &clock_);
  auto log = OpenLog(&cache, "zc3/");
  for (int i = 0; i < 20; ++i) {
    auto batch = MixedBatch(4);
    LIQUID_ASSERT_OK(log->AppendBatch(&batch).status());
  }
  ASSERT_GT(cache.evictions(), 0);

  Counter* copied = MetricFor("zc3", "fetch_copied_bytes");
  const int64_t copied_before = copied->value();
  EncodedBatch out;
  LIQUID_ASSERT_OK(log->ReadEncoded(0, 1 << 20, &out));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.base_offset(), 0);
  EXPECT_GT(copied->value() - copied_before, 0);

  std::vector<Record> decoded;
  LIQUID_ASSERT_OK(out.DecodeAll(&decoded));
  EXPECT_EQ(decoded.front().key, "k0");
}

TEST_F(LogZeroCopyTest, PinnedFetchSurvivesLaterAppendsAndEviction) {
  // Lifetime rule: the EncodedBatch's pinned buffer stays valid and
  // unchanged even after the cache extends the page or evicts it.
  PageCacheConfig config;
  config.page_size = 1024;
  config.capacity_bytes = 1024;  // One page: any growth evicts.
  config.flush_after_ms = 0;
  PageCache cache(config, &clock_);
  auto log = OpenLog(&cache, "zc4/");
  auto first = MixedBatch(4);
  LIQUID_ASSERT_OK(log->AppendBatch(&first).status());

  EncodedBatch pinned;
  LIQUID_ASSERT_OK(log->ReadEncoded(0, 1 << 20, &pinned));
  ASSERT_EQ(pinned.record_count(), 4u);
  const std::string before = BatchBytes(pinned);

  // Extend the same page (in place within its capacity, else into a new
  // buffer) and then blow the cache past capacity so the original page is
  // evicted.
  for (int i = 0; i < 30; ++i) {
    auto more = MixedBatch(4);
    LIQUID_ASSERT_OK(log->AppendBatch(&more).status());
  }
  ASSERT_GT(cache.evictions(), 0);

  EXPECT_EQ(BatchBytes(pinned), before);
  std::vector<Record> decoded;
  LIQUID_ASSERT_OK(pinned.DecodeAll(&decoded));
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded.front().offset, 0);
}

}  // namespace
}  // namespace liquid::storage
