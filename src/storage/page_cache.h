#ifndef LIQUID_STORAGE_PAGE_CACHE_H_
#define LIQUID_STORAGE_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
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
  /// Pages fetched ahead on a read miss (models OS prefetching; §4.1 notes
  /// "after typically a few seconds, successive reads become fast due to
  /// prefetching").
  int readahead_pages = 8;
};

/// Shared page cache over Disk files. Thread-safe.
///
/// Pages are identified by (file_id, page_number); files obtain ids from
/// NewFileId(). Use CachedFile to wrap a File with transparent caching.
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

  PageCache(PageCacheConfig config, Clock* clock);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  uint64_t NewFileId();

  /// Reads [offset, offset+n) of `file`, serving from cache where possible.
  /// Misses read from disk with read-ahead and populate the cache.
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

  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  /// Evictions that had to discard a page younger than flush_after_ms.
  int64_t forced_evictions() const;
  size_t bytes_cached() const;

 private:
  struct Page {
    /// Shared so Pin() can hand out refcounted views. NoteAppend extends the
    /// buffer in place only within its capacity and past its current end;
    /// otherwise it builds a new buffer, so bytes a pin holds never change.
    std::shared_ptr<std::string> bytes;
    bool written = false;       // Populated by the append path (vs a read).
    int64_t last_write_ms = 0;  // Meaningful only when written.
    uint64_t key = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  static uint64_t MakeKey(uint64_t file_id, uint64_t page_no) {
    return (file_id << 40) | page_no;
  }

  // All require mu_ held.
  void Touch(Page* page);
  /// Caches a page a read miss fetched from the file, unless the resident
  /// page is at least as long.
  void InsertPage(uint64_t key, std::string bytes);
  void EvictIfNeeded();

  const PageCacheConfig config_;
  Clock* clock_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Page> pages_;
  std::list<uint64_t> lru_;  // Front = most recently used.
  size_t bytes_cached_ = 0;
  uint64_t next_file_id_ = 1;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t forced_evictions_ = 0;
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
