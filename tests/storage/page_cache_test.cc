#include "storage/page_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/clock.h"

#include "test_util.h"

namespace liquid::storage {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheConfig SmallConfig() {
    PageCacheConfig config;
    config.page_size = 128;
    config.capacity_bytes = 1024;  // 8 pages.
    config.flush_after_ms = 100;
    config.readahead_pages = 2;
    return config;
  }

  MemDisk disk_;
  SimulatedClock clock_{0};
};

TEST_F(PageCacheTest, AppendPopulatesCacheSoTailReadsAreHits) {
  PageCache cache(SmallConfig(), &clock_);
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);
  LIQUID_ASSERT_OK(file.Append(std::string(256, 'a')));

  std::string out;
  ASSERT_TRUE(file.ReadAt(0, 256, &out).ok());
  EXPECT_EQ(out, std::string(256, 'a'));
  EXPECT_EQ(cache.misses(), 0);  // Served entirely from the write path.
  EXPECT_GT(cache.hits(), 0);
  EXPECT_EQ(disk_.read_ops(), 0);  // Never touched the disk for reads.
}

TEST_F(PageCacheTest, AppendAfterTailPageEvictionKeepsItsHead) {
  // The tail page of `f` is evicted while half full; the next append must
  // not recreate it from the appended bytes alone (a zero-filled head would
  // then be served as file content).
  PageCache cache(SmallConfig(), &clock_);
  CachedFile f(std::move(disk_.OpenOrCreate("f")).value(), &cache);
  CachedFile g(std::move(disk_.OpenOrCreate("g")).value(), &cache);
  LIQUID_ASSERT_OK(f.Append(std::string(64, 'a')));
  clock_.AdvanceMs(1000);  // f's page is now clean, so evictable.
  LIQUID_ASSERT_OK(g.Append(std::string(1024, 'z')));  // Fills the cache.
  ASSERT_GT(cache.evictions(), 0);
  LIQUID_ASSERT_OK(f.Append(std::string(64, 'b')));

  std::string out;
  LIQUID_ASSERT_OK(f.ReadAt(0, 128, &out));
  EXPECT_EQ(out, std::string(64, 'a') + std::string(64, 'b'));
}

TEST_F(PageCacheTest, ColdReadMissesThenHits) {
  PageCache cache(SmallConfig(), &clock_);
  // Write the file directly (bypassing the cache): a pre-existing cold log.
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(std::string(512, 'b')));
  }
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);

  std::string out;
  ASSERT_TRUE(file.ReadAt(0, 128, &out).ok());
  EXPECT_EQ(cache.misses(), 1);
  const int64_t disk_reads_after_first = disk_.read_ops();
  EXPECT_GT(disk_reads_after_first, 0);

  // Same page again: hit, no disk.
  ASSERT_TRUE(file.ReadAt(0, 128, &out).ok());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(disk_.read_ops(), disk_reads_after_first);
}

TEST_F(PageCacheTest, ReadAheadWarmsFollowingPages) {
  auto config = SmallConfig();
  config.readahead_pages = 4;
  PageCache cache(config, &clock_);
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(std::string(1024, 'c')));
  }
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);

  std::string out;
  LIQUID_ASSERT_OK(file.ReadAt(0, 128, &out));  // Miss; prefetches pages 0..3.
  EXPECT_EQ(cache.misses(), 1);
  LIQUID_ASSERT_OK(file.ReadAt(128, 128, &out));  // Prefetched: hit.
  LIQUID_ASSERT_OK(file.ReadAt(256, 128, &out));
  LIQUID_ASSERT_OK(file.ReadAt(384, 128, &out));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_GE(cache.hits(), 3);
}

TEST_F(PageCacheTest, EvictionKeepsCapacityBounded) {
  PageCache cache(SmallConfig(), &clock_);
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);
  clock_.SetMs(0);
  LIQUID_ASSERT_OK(file.Append(std::string(4096, 'd')));  // 32 pages >> 8-page capacity.
  clock_.AdvanceMs(1000);               // Everything flushed (evictable).
  LIQUID_ASSERT_OK(file.Append(std::string(512, 'e')));   // Forces eviction passes.
  EXPECT_LE(cache.bytes_cached(), 1024u + 128u);
  EXPECT_GT(cache.evictions(), 0);
}

TEST_F(PageCacheTest, DirtyHeadProtectedUntilFlushTimeout) {
  auto config = SmallConfig();
  config.capacity_bytes = 512;  // 4 pages.
  PageCache cache(config, &clock_);
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(std::string(2048, 'x')));  // Cold data on disk.
  }
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);

  // Freshly appended pages (dirty, within flush window).
  clock_.SetMs(10);
  LIQUID_ASSERT_OK(file.Append(std::string(256, 'h')));  // Pages 16,17 dirty.

  // Reading cold pages evicts clean pages first, not the dirty head.
  std::string out;
  for (int p = 0; p < 8; ++p) {
    LIQUID_ASSERT_OK(file.ReadAt(p * 128, 128, &out));
  }

  // The fresh head must still be a hit (was not evicted).
  const int64_t misses_before = cache.misses();
  LIQUID_ASSERT_OK(file.ReadAt(2048, 128, &out));
  EXPECT_EQ(out, std::string(128, 'h'));
  EXPECT_EQ(cache.misses(), misses_before);
}

TEST_F(PageCacheTest, ForcedEvictionWhenAllDirty) {
  auto config = SmallConfig();
  config.capacity_bytes = 256;  // 2 pages.
  config.flush_after_ms = 1000000;  // Nothing ever flushes on its own.
  PageCache cache(config, &clock_);
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);
  LIQUID_ASSERT_OK(file.Append(std::string(1024, 'z')));  // 8 dirty pages, capacity 2.
  EXPECT_GT(cache.forced_evictions(), 0);
  EXPECT_LE(cache.bytes_cached(), 256u + 128u);
}

TEST_F(PageCacheTest, TruncateInvalidatesCachedPages) {
  PageCache cache(SmallConfig(), &clock_);
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);
  LIQUID_ASSERT_OK(file.Append(std::string(256, 'a')));
  ASSERT_TRUE(file.Truncate(0).ok());
  LIQUID_ASSERT_OK(file.Append(std::string(256, 'b')));
  std::string out;
  LIQUID_ASSERT_OK(file.ReadAt(0, 256, &out));
  EXPECT_EQ(out, std::string(256, 'b'));  // No stale 'a' pages.
}

TEST_F(PageCacheTest, PageLeftBehindByARacingReadIsNeverServedShortOrZeroed) {
  // A read that misses page 0 copies the file's 64 bytes from disk; an
  // append of 32 more lands meanwhile and its note skips the absent page
  // (its head is not cached); the read then caches its 64-byte copy. The
  // cache now holds a page behind the file. Reads with no log lock race
  // appends exactly so (Log::ReadEncoded), so the page must be neither
  // served short nor extended by the next append over a zero-filled gap.
  PageCache cache(SmallConfig(), &clock_);
  const std::string a(64, 'a'), b(32, 'b'), c(32, 'c');
  for (const bool append_again : {false, true}) {
    SCOPED_TRACE(append_again ? "next append noted" : "read at once");
    const uint64_t id = cache.NewFileId();
    std::unique_ptr<File> file =
        std::move(disk_.OpenOrCreate(append_again ? "g" : "f")).value();
    LIQUID_ASSERT_OK(file->Append(a));
    std::string out;
    LIQUID_ASSERT_OK(cache.Read(id, *file, 0, 64, &out));
    LIQUID_ASSERT_OK(file->Append(b));  // Its note skipped the page.
    if (append_again) {
      LIQUID_ASSERT_OK(file->Append(c));
      cache.NoteAppend(id, 96, c);
      LIQUID_ASSERT_OK(cache.Read(id, *file, 0, 128, &out));
      EXPECT_EQ(out, a + b + c);
    } else {
      LIQUID_ASSERT_OK(cache.Read(id, *file, 0, 96, &out));
      EXPECT_EQ(out, a + b);
    }
  }
}

TEST_F(PageCacheTest, ReadAcrossPageBoundary) {
  PageCache cache(SmallConfig(), &clock_);
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);
  std::string data;
  for (int i = 0; i < 512; ++i) data.push_back(static_cast<char>('a' + i % 26));
  LIQUID_ASSERT_OK(file.Append(data));
  std::string out;
  ASSERT_TRUE(file.ReadAt(100, 200, &out).ok());
  EXPECT_EQ(out, data.substr(100, 200));
}

TEST_F(PageCacheTest, PartialTailPageReadable) {
  PageCache cache(SmallConfig(), &clock_);
  auto base = disk_.OpenOrCreate("f");
  CachedFile file(std::move(base).value(), &cache);
  LIQUID_ASSERT_OK(file.Append("short"));  // 5 bytes, far below one page.
  std::string out;
  ASSERT_TRUE(file.ReadAt(0, 128, &out).ok());
  EXPECT_EQ(out, "short");
}

TEST_F(PageCacheTest, MultipleFilesDoNotCollide) {
  PageCache cache(SmallConfig(), &clock_);
  auto f1 = disk_.OpenOrCreate("f1");
  auto f2 = disk_.OpenOrCreate("f2");
  CachedFile a(std::move(f1).value(), &cache);
  CachedFile b(std::move(f2).value(), &cache);
  LIQUID_ASSERT_OK(a.Append(std::string(128, 'A')));
  LIQUID_ASSERT_OK(b.Append(std::string(128, 'B')));
  std::string out;
  LIQUID_ASSERT_OK(a.ReadAt(0, 128, &out));
  EXPECT_EQ(out, std::string(128, 'A'));
  LIQUID_ASSERT_OK(b.ReadAt(0, 128, &out));
  EXPECT_EQ(out, std::string(128, 'B'));
}

}  // namespace
}  // namespace liquid::storage
