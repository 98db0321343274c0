#include "storage/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"

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

TEST_F(PageCacheTest, ContiguousMissIsOneDiskRead) {
  // A cold read of 32 pages is one run of misses: one disk read covering
  // all of it, not one read-ahead chunk per 8 pages.
  auto config = SmallConfig();
  config.capacity_bytes = 64 * 128;
  config.readahead_pages = 8;
  PageCache cache(config, &clock_);
  std::string data;
  for (int i = 0; i < 32 * 128; ++i) data.push_back(static_cast<char>(i % 251));
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(data));
  }
  CachedFile file(std::move(disk_.OpenOrCreate("f")).value(), &cache);

  std::string out;
  LIQUID_ASSERT_OK(file.ReadAt(0, data.size(), &out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk_.read_ops(), 1);
  EXPECT_EQ(disk_.bytes_read(), static_cast<int64_t>(data.size()));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  for (uint64_t p = 0; p < 32; ++p) {
    EXPECT_TRUE(cache.Resident(1, p * 128)) << "page " << p;
  }
}

TEST_F(PageCacheTest, MissRunStopsAtAResidentPage) {
  // Page 3 is resident, so a read of pages 0..7 is two runs, 0..2 and
  // 4..7, around one hit: page 3 is not read from disk again.
  auto config = SmallConfig();
  config.readahead_pages = 1;
  PageCache cache(config, &clock_);
  const std::string data(8 * 128, 'r');
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(data));
  }
  CachedFile file(std::move(disk_.OpenOrCreate("f")).value(), &cache);

  std::string out;
  LIQUID_ASSERT_OK(file.ReadAt(3 * 128, 128, &out));
  ASSERT_EQ(disk_.bytes_read(), 128);
  LIQUID_ASSERT_OK(file.ReadAt(0, data.size(), &out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk_.bytes_read(), static_cast<int64_t>(data.size()));
  EXPECT_EQ(disk_.read_ops(), 3);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 1);
}

TEST_F(PageCacheTest, RunLongerThanTheCacheIsServedWhole) {
  // A 16-page run through a 4-page cache: eviction drops the run's first
  // pages as its last go in, yet the read returns every byte, from one
  // disk read, and the cache stays within its capacity.
  auto config = SmallConfig();
  config.capacity_bytes = 4 * 128;
  PageCache cache(config, &clock_);
  std::string data;
  for (int i = 0; i < 16 * 128; ++i) data.push_back(static_cast<char>('a' + i % 26));
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(data));
  }
  CachedFile file(std::move(disk_.OpenOrCreate("f")).value(), &cache);

  std::string out;
  LIQUID_ASSERT_OK(file.ReadAt(64, data.size() - 100, &out));
  EXPECT_EQ(out, data.substr(64, data.size() - 100));
  EXPECT_EQ(disk_.read_ops(), 1);
  EXPECT_LE(cache.bytes_cached(), config.capacity_bytes);
  EXPECT_EQ(cache.evictions(), 12);
  EXPECT_TRUE(cache.Resident(1, 15 * 128));  // The run's last pages stay.
  EXPECT_FALSE(cache.Resident(1, 0));
}

TEST_F(PageCacheTest, PublishesItsCountersUnderTheMetricsPrefix) {
  // A cold 16-page read through a 4-page cache, then a pin of a page it
  // left resident: the published counters track the cache's own, and the
  // histogram holds one sample per disk read, its length in pages.
  auto config = SmallConfig();
  config.capacity_bytes = 4 * 128;
  const std::string prefix = "liquid.page_cache_test.published.";
  PageCache cache(config, &clock_, prefix);
  {
    auto raw = disk_.OpenOrCreate("f");
    LIQUID_ASSERT_OK((*raw)->Append(std::string(16 * 128, 'p')));
  }
  CachedFile file(std::move(disk_.OpenOrCreate("f")).value(), &cache);
  std::string out;
  LIQUID_ASSERT_OK(file.ReadAt(0, 16 * 128, &out));
  ASSERT_TRUE(file.Pin(15 * 128));

  MetricsRegistry* metrics = MetricsRegistry::Default();
  EXPECT_EQ(metrics->GetCounter(prefix + "hits")->value(), 1);
  EXPECT_EQ(metrics->GetCounter(prefix + "misses")->value(), 1);
  EXPECT_EQ(metrics->GetCounter(prefix + "evictions")->value(), 12);
  EXPECT_EQ(cache.evictions(), 12);
  const HistogramStats pages =
      metrics->GetHistogram(prefix + "disk_read_pages")->Stats();
  EXPECT_EQ(pages.count, 1);
  EXPECT_EQ(pages.max, 16);
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

/// The eviction policy as a linear two-pass scan over one LRU list, the
/// reference the differential test holds PageCache to. It keeps page
/// lengths only, and mirrors PageCache's bookkeeping for every operation:
/// pass 0 walks from the least recently used end evicting clean pages, and
/// pass 1, only if still over capacity, evicts what is left (all dirty).
class ReferenceCache {
 public:
  ReferenceCache(PageCacheConfig config, const Clock* clock)
      : config_(config), clock_(clock) {}

  void NoteAppend(uint64_t file_id, uint64_t offset, size_t n) {
    const size_t ps = config_.page_size;
    const int64_t now = clock_->NowMs();
    for (uint64_t pos = 0; pos < n;) {
      const uint64_t abs = offset + pos;
      const uint64_t page_no = abs / ps;
      const size_t in_page = static_cast<size_t>(abs - page_no * ps);
      const size_t len = std::min<size_t>(ps - in_page, n - pos);
      pos += len;
      const uint64_t key = Key(file_id, page_no);
      auto it = pages_.find(key);
      if (it != pages_.end() && it->second.size < in_page) {
        Drop(it);
        it = pages_.end();
      }
      if (it == pages_.end() && in_page > 0) continue;
      if (it == pages_.end()) {
        lru_.push_front(key);
        it = pages_.emplace(key, Page{0, false, 0, lru_.begin()}).first;
      } else {
        Touch(&it->second);
      }
      it->second.written = true;
      it->second.last_write_ms = now;
      if (it->second.size < in_page + len) {
        bytes_ += in_page + len - it->second.size;
        it->second.size = in_page + len;
      }
    }
    Evict();
  }

  void Read(uint64_t file_id, uint64_t file_size, uint64_t offset, size_t n) {
    if (n == 0 || offset >= file_size) return;
    n = std::min<uint64_t>(n, file_size - offset);
    const size_t ps = config_.page_size;
    const uint64_t last_page = (offset + n - 1) / ps;
    const auto serves = [&](uint64_t page_no) {
      const uint64_t page_start = page_no * ps;
      const size_t needed = static_cast<size_t>(
          std::min<uint64_t>(offset + n, page_start + ps) - page_start);
      auto it = pages_.find(Key(file_id, page_no));
      return it != pages_.end() && it->second.size >= needed ? it
                                                             : pages_.end();
    };
    for (uint64_t page_no = offset / ps; page_no <= last_page;) {
      auto it = serves(page_no);
      if (it != pages_.end()) {
        Touch(&it->second);
        ++hits_;
        ++page_no;
        continue;
      }
      // One disk read for the run of pages the cache cannot serve, of at
      // least the read-ahead, then one eviction pass.
      ++misses_;
      ++disk_reads_;
      uint64_t run_end = page_no + 1;
      while (run_end <= last_page && serves(run_end) == pages_.end()) {
        ++run_end;
      }
      const uint64_t page_start = page_no * ps;
      const uint64_t pages = std::max<uint64_t>(
          run_end - page_no, std::max(1, config_.readahead_pages));
      const uint64_t chunk = std::min<uint64_t>(pages * ps, file_size - page_start);
      for (uint64_t i = 0; i * ps < chunk; ++i) {
        Insert(Key(file_id, page_no + i),
               static_cast<size_t>(std::min<uint64_t>(ps, chunk - i * ps)));
      }
      Evict();
      page_no = run_end;
    }
  }

  void Pin(uint64_t file_id, uint64_t offset) {
    auto it = pages_.find(Key(file_id, offset / config_.page_size));
    if (it == pages_.end()) return;
    Touch(&it->second);
    ++hits_;
  }

  void Invalidate(uint64_t file_id, uint64_t from_offset) {
    const uint64_t first = from_offset / config_.page_size;
    for (auto it = pages_.begin(); it != pages_.end();) {
      const bool drop = (it->first >> 40) == file_id &&
                        (it->first & ((1ull << 40) - 1)) >= first;
      it = drop ? Drop(it) : std::next(it);
    }
  }

  bool Resident(uint64_t file_id, uint64_t offset) const {
    return pages_.count(Key(file_id, offset / config_.page_size)) > 0;
  }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t forced_evictions() const { return forced_; }
  size_t bytes_cached() const { return bytes_; }
  int64_t disk_reads() const { return disk_reads_; }

 private:
  struct Page {
    size_t size;
    bool written;
    int64_t last_write_ms;
    std::list<uint64_t>::iterator lru_it;
  };
  using Pages = std::map<uint64_t, Page>;

  static uint64_t Key(uint64_t file_id, uint64_t page_no) {
    return (file_id << 40) | page_no;
  }

  void Touch(Page* page) {
    lru_.splice(lru_.begin(), lru_, page->lru_it);
  }

  Pages::iterator Drop(Pages::iterator it) {
    bytes_ -= it->second.size;
    lru_.erase(it->second.lru_it);
    return pages_.erase(it);
  }

  void Insert(uint64_t key, size_t size) {
    auto it = pages_.find(key);
    if (it != pages_.end()) {
      if (it->second.size < size) {
        bytes_ += size - it->second.size;
        it->second.size = size;
      }
      Touch(&it->second);
      return;
    }
    lru_.push_front(key);
    pages_.emplace(key, Page{size, false, 0, lru_.begin()});
    bytes_ += size;
  }

  void Evict() {
    const int64_t now = clock_->NowMs();
    for (int pass = 0; pass < 2 && bytes_ > config_.capacity_bytes; ++pass) {
      auto it = lru_.end();
      while (bytes_ > config_.capacity_bytes && it != lru_.begin()) {
        --it;
        auto pit = pages_.find(*it);
        const Page& page = pit->second;
        const bool dirty =
            page.written && now - page.last_write_ms < config_.flush_after_ms;
        if (dirty && pass == 0) continue;
        if (dirty) ++forced_;
        ++evictions_;
        it = std::next(it);  // Drop erases the node `it` pointed at.
        Drop(pit);
      }
    }
  }

  const PageCacheConfig config_;
  const Clock* const clock_;
  Pages pages_;
  std::list<uint64_t> lru_;  // Front = most recently used.
  size_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t forced_ = 0;
  int64_t disk_reads_ = 0;
};

TEST_F(PageCacheTest, EvictionMatchesTheLinearTwoPassScan) {
  // A seeded random mix of appends, reads, pins, truncations and clock
  // advances over several files and a cache of 12 small pages. After every
  // operation the resident page set, all four counters and the number of
  // disk reads must equal the reference scan's; reads must return the
  // file's bytes.
  PageCacheConfig config;
  config.page_size = 64;
  config.capacity_bytes = 12 * 64;
  config.flush_after_ms = 40;
  config.readahead_pages = 3;
  constexpr int kFiles = 3;
  constexpr int kOps = 4000;
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimulatedClock clock(0);
    MemDisk disk;
    PageCache cache(config, &clock);
    ReferenceCache model(config, &clock);
    struct TestFile {
      uint64_t id;
      std::unique_ptr<File> file;
      std::string bytes;  // What the file holds.
      uint64_t pages_seen = 0;
    };
    std::vector<TestFile> files;
    for (int f = 0; f < kFiles; ++f) {
      files.push_back(
          TestFile{cache.NewFileId(),
                   std::move(disk.OpenOrCreate(std::to_string(seed) + "/" +
                                               std::to_string(f)))
                       .value(),
                   "", 0});
    }
    Random rng(seed);
    for (int op = 0; op < kOps; ++op) {
      TestFile& f = files[rng.Uniform(kFiles)];
      const uint64_t size = f.bytes.size();
      const uint64_t kind = rng.Uniform(100);
      std::string out;
      if (kind < 40) {
        // Append; one in ten skips the note, as a write the cache missed.
        const std::string data = rng.Bytes(1 + rng.Uniform(150));
        LIQUID_ASSERT_OK(f.file->Append(data));
        f.bytes += data;
        if (rng.Uniform(10) != 0) {
          cache.NoteAppend(f.id, size, data);
          model.NoteAppend(f.id, size, data.size());
        }
      } else if (kind < 70) {
        if (size == 0) continue;
        const uint64_t offset = rng.Uniform(size);
        const size_t n = 1 + rng.Uniform(200);
        LIQUID_ASSERT_OK(cache.Read(f.id, *f.file, offset, n, &out));
        model.Read(f.id, size, offset, n);
        ASSERT_EQ(out, f.bytes.substr(offset, n)) << "op " << op;
      } else if (kind < 82) {
        if (size == 0) continue;
        const uint64_t offset = rng.Uniform(size);
        const PageCache::PinnedPage pin = cache.Pin(f.id, offset);
        model.Pin(f.id, offset);
        // A pinned page may end short of `offset` (an unnoted append);
        // the bytes it does hold are the file's.
        const size_t at = static_cast<size_t>(offset - pin.file_offset);
        if (pin && at < pin.bytes->size()) {
          ASSERT_EQ((*pin.bytes)[at], f.bytes[offset]) << "op " << op;
        }
      } else if (kind < 87) {
        const uint64_t to = size == 0 ? 0 : rng.Uniform(size + 1);
        LIQUID_ASSERT_OK(f.file->Truncate(to));
        f.bytes.resize(to);
        cache.Invalidate(f.id, to);
        model.Invalidate(f.id, to);
      } else {
        clock.AdvanceMs(static_cast<int64_t>(rng.Uniform(25)));
      }
      f.pages_seen = std::max<uint64_t>(
          f.pages_seen, f.bytes.size() / config.page_size + 1);
      for (const TestFile& g : files) {
        for (uint64_t p = 0; p < g.pages_seen; ++p) {
          ASSERT_EQ(cache.Resident(g.id, p * config.page_size),
                    model.Resident(g.id, p * config.page_size))
              << "op " << op << " file " << g.id << " page " << p;
        }
      }
      ASSERT_EQ(cache.bytes_cached(), model.bytes_cached()) << "op " << op;
      ASSERT_EQ(cache.hits(), model.hits()) << "op " << op;
      ASSERT_EQ(cache.misses(), model.misses()) << "op " << op;
      ASSERT_EQ(cache.evictions(), model.evictions()) << "op " << op;
      ASSERT_EQ(cache.forced_evictions(), model.forced_evictions())
          << "op " << op;
      ASSERT_EQ(disk.read_ops(), model.disk_reads()) << "op " << op;
    }
    // The mix exercised both passes.
    EXPECT_GT(model.evictions(), model.forced_evictions());
    EXPECT_GT(model.forced_evictions(), 0);
  }
}

}  // namespace
}  // namespace liquid::storage
