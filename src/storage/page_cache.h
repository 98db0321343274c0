#ifndef LIQUID_STORAGE_PAGE_CACHE_H_
#define LIQUID_STORAGE_PAGE_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk.h"

namespace liquid::storage {

/// Configuration of the explicit page cache that models the OS file-system
/// cache behaviour the paper relies on (§4.1 "anti-caching"): freshly appended
/// log pages stay in RAM and are flushed behind after a configurable timeout;
/// reads at the head of the log therefore hit RAM, while rewind reads miss and
/// pay disk cost, amortized by sequential read-ahead.
struct PageCacheConfig {
  size_t page_size = 4096;
  size_t capacity_bytes = 64ull << 20;  // 64 MiB
  /// Dirty (recently appended) pages are not evictable until this old.
  int64_t flush_after_ms = 1000;
  /// The fewest pages one read miss fetches: a miss reads its whole run of
  /// missing pages, or this many if the run is shorter (models OS
  /// prefetching; §4.1 notes "after typically a few seconds, successive
  /// reads become fast due to prefetching").
  int readahead_pages = 8;
};

/// Shared page cache over Disk files. Thread-safe.
///
/// Pages are identified by (file_id, page_number); files obtain ids from
/// NewFileId(). Use CachedFile to wrap a File with transparent caching.
///
/// A read serves each resident page it covers from RAM. At a page it cannot
/// serve it finds, in the same lock hold, the whole run of following pages
/// the request needs and the cache cannot serve, and fetches that run in one
/// disk read of at least `readahead_pages` pages; the run's bytes are served
/// from that read, so a run longer than the cache is still served whole.
/// misses() counts those disk reads, hits() the pages served from RAM.
///
/// Eviction is least-recently-used in two passes: clean pages first, then,
/// only if still over capacity, dirty ones (written less than
/// flush_after_ms ago), which counts as a forced eviction. Each pass takes
/// the front of its own LRU set, so no operation scans the resident pages:
/// a touch, an insert or an eviction costs O(log n), and a page's dirty
/// window expires off a FIFO of write times in amortized O(log n). The
/// clock must not go backwards.
class PageCache {
 public:
  /// A refcounted view of one cache-resident page, for zero-copy reads. The
  /// pin keeps `bytes` alive for as long as it is held, and the bytes it
  /// held when pinned never change or move: the append path only extends a
  /// buffer within its reserved capacity (else it builds a new one), and
  /// eviction/invalidation only drop the cache's own reference. A holder
  /// with no lock may read those bytes through `bytes->data()`, but not
  /// `bytes->size()`, which an append may be growing; frame metadata taken
  /// at pin time bounds the read. `file_offset` is the file position of the
  /// buffer's first byte.
  struct PinnedPage {
    std::shared_ptr<const std::string> bytes;
    uint64_t file_offset = 0;
    explicit operator bool() const { return bytes != nullptr; }
  };

  /// With a non-empty `metrics_prefix` the cache also publishes, in
  /// MetricsRegistry::Default(), the counters `<prefix>hits`, `misses` and
  /// `evictions` and the histogram `<prefix>disk_read_pages` (pages per disk
  /// read).
  PageCache(PageCacheConfig config, Clock* clock,
            const std::string& metrics_prefix = "");

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  uint64_t NewFileId();

  /// Reads [offset, offset+n) of `file`, serving from cache where possible.
  /// Each run of missing pages is one disk read, with read-ahead, that
  /// populates the cache.
  Status Read(uint64_t file_id, const File& file, uint64_t offset, size_t n,
              std::string* out);

  /// Pins the resident page containing byte `offset` of `file_id`; returns an
  /// empty pin on a cache miss (callers fall back to the copying Read path,
  /// which populates the cache). Counts as a cache hit when it succeeds; a
  /// miss is not counted here because the fallback read counts it.
  PinnedPage Pin(uint64_t file_id, uint64_t offset);

  /// Records bytes just appended to `file` at `offset` so the head of the log
  /// stays in RAM (write path populates the cache, as the OS cache would).
  void NoteAppend(uint64_t file_id, uint64_t offset, const Slice& data);

  /// Drops all pages of `file_id` at or after byte `from_offset` (truncate) or
  /// the whole file (from_offset == 0).
  void Invalidate(uint64_t file_id, uint64_t from_offset = 0);

  /// Whether the page holding byte `offset` of `file_id` is resident. An
  /// inspection only: it neither touches the page nor counts a hit or miss.
  bool Resident(uint64_t file_id, uint64_t offset) const;

  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  /// Evictions that had to discard a page younger than flush_after_ms.
  int64_t forced_evictions() const;
  size_t bytes_cached() const;

 private:
  /// An LRU set: touch sequence number -> page key, least recent first.
  using LruSet = std::map<uint64_t, uint64_t>;

  struct Page {
    /// Shared so Pin() can hand out refcounted views. NoteAppend extends the
    /// buffer in place only within its capacity and past its current end;
    /// otherwise it builds a new buffer, so bytes a pin holds never change.
    std::shared_ptr<std::string> bytes;
    int64_t last_write_ms = 0;  // Of the last append; meaningful once written.
    /// Position in LRU order: a higher seq was touched more recently.
    uint64_t seq = 0;
    /// Which LRU set holds the page: dirty_lru_ while it is written and
    /// its flush window is open, clean_lru_ otherwise.
    bool dirty = false;
  };
  using PageMap = std::unordered_map<uint64_t, Page>;

  static uint64_t MakeKey(uint64_t file_id, uint64_t page_no) {
    return (file_id << 40) | page_no;
  }

  LruSet& LruOf(const Page& page) REQUIRES(mu_) {
    return page.dirty ? dirty_lru_ : clean_lru_;
  }
  /// Adds a new page (absent from pages_) as the most recently used.
  PageMap::iterator AddPage(uint64_t key, Page page) REQUIRES(mu_);
  /// Makes `page` the most recently used; `dirty` selects its set.
  void Touch(Page* page, bool dirty) REQUIRES(mu_);
  void Touch(Page* page) REQUIRES(mu_) { Touch(page, page->dirty); }
  /// The resident page `key` if it holds at least `needed` bytes, else null.
  /// A shorter page is a miss: a read that raced an append can leave a page
  /// behind the file (see NoteAppend).
  Page* FindServing(uint64_t key, size_t needed) REQUIRES(mu_);
  /// Drops a resident page from the map, its LRU set and the byte count.
  PageMap::iterator Drop(PageMap::iterator it) REQUIRES(mu_);
  /// Moves pages whose flush window closed by `now_ms` to the clean set,
  /// keeping their place in LRU order.
  void ExpireWrites(int64_t now_ms) REQUIRES(mu_);
  /// Caches a page a read miss fetched from the file, unless the resident
  /// page is at least as long. Does not evict: the caller evicts once per
  /// disk read.
  void InsertPage(uint64_t key, std::shared_ptr<std::string> bytes)
      REQUIRES(mu_);
  void EvictIfNeeded() REQUIRES(mu_);

  const PageCacheConfig config_;
  Clock* const clock_;

  /// A leaf lock (DESIGN.md §5a): appends take it under Log::mu_, reads
  /// under it or with no log lock; held while acquiring nothing else.
  mutable Mutex mu_;
  PageMap pages_ GUARDED_BY(mu_);
  LruSet clean_lru_ GUARDED_BY(mu_);
  LruSet dirty_lru_ GUARDED_BY(mu_);
  /// (write time, page key) per page write, oldest first: the dirty pages'
  /// flush windows close in this order. Entries of pages rewritten or
  /// dropped since are skipped when they expire.
  std::deque<std::pair<int64_t, uint64_t>> writes_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  size_t bytes_cached_ GUARDED_BY(mu_) = 0;
  uint64_t next_file_id_ GUARDED_BY(mu_) = 1;
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
  int64_t evictions_ GUARDED_BY(mu_) = 0;
  int64_t forced_evictions_ GUARDED_BY(mu_) = 0;

  /// Published twins of the counters above, resolved at construction; all
  /// null without a metrics prefix.
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
  Histogram* disk_read_pages_ = nullptr;
};

/// File decorator routing reads through a PageCache and populating it on
/// append, giving log segments the paper's anti-caching behaviour.
class CachedFile : public File {
 public:
  CachedFile(std::unique_ptr<File> base, PageCache* cache);

  Status Append(const Slice& data) override;
  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override;
  uint64_t Size() const override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;

  /// Zero-copy read support: pins the cache-resident page containing byte
  /// `offset`; empty on a cache miss. See PageCache::Pin.
  PageCache::PinnedPage Pin(uint64_t offset) const {
    return cache_->Pin(file_id_, offset);
  }

 private:
  std::unique_ptr<File> base_;
  PageCache* cache_;
  uint64_t file_id_;
};

}  // namespace liquid::storage

#endif  // LIQUID_STORAGE_PAGE_CACHE_H_
