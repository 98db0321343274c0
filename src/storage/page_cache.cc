#include "storage/page_cache.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

namespace liquid::storage {

PageCache::PageCache(PageCacheConfig config, Clock* clock,
                     const std::string& metrics_prefix)
    : config_(config), clock_(clock) {
  if (metrics_prefix.empty()) return;
  MetricsRegistry* global = MetricsRegistry::Default();
  hits_counter_ = global->GetCounter(metrics_prefix + "hits");
  misses_counter_ = global->GetCounter(metrics_prefix + "misses");
  evictions_counter_ = global->GetCounter(metrics_prefix + "evictions");
  disk_read_pages_ = global->GetHistogram(metrics_prefix + "disk_read_pages");
}

uint64_t PageCache::NewFileId() {
  MutexLock lock(&mu_);
  return next_file_id_++;
}

PageCache::PageMap::iterator PageCache::AddPage(uint64_t key, Page page) {
  page.seq = ++next_seq_;
  LruSet& lru = LruOf(page);
  lru.emplace_hint(lru.end(), page.seq, key);
  return pages_.emplace(key, std::move(page)).first;
}

void PageCache::Touch(Page* page, bool dirty) {
  // Re-keys the set's node rather than allocating a new one.
  auto node = LruOf(*page).extract(page->seq);
  page->dirty = dirty;
  page->seq = node.key() = ++next_seq_;
  LruSet& lru = LruOf(*page);
  lru.insert(lru.end(), std::move(node));
}

PageCache::PageMap::iterator PageCache::Drop(PageMap::iterator it) {
  LruOf(it->second).erase(it->second.seq);
  bytes_cached_ -= it->second.bytes->size();
  return pages_.erase(it);
}

void PageCache::ExpireWrites(int64_t now_ms) {
  while (!writes_.empty() &&
         now_ms - writes_.front().first >= config_.flush_after_ms) {
    auto it = pages_.find(writes_.front().second);
    writes_.pop_front();
    // A page dropped, or rewritten since (a later entry expires it), stays.
    if (it == pages_.end() || !it->second.dirty ||
        now_ms - it->second.last_write_ms < config_.flush_after_ms) {
      continue;
    }
    Page& page = it->second;
    // Same seq, so the page keeps its place in LRU order.
    auto node = dirty_lru_.extract(page.seq);
    page.dirty = false;
    clean_lru_.insert(std::move(node));
  }
}

PageCache::Page* PageCache::FindServing(uint64_t key, size_t needed) {
  auto it = pages_.find(key);
  return it != pages_.end() && it->second.bytes->size() >= needed
             ? &it->second
             : nullptr;
}

void PageCache::InsertPage(uint64_t key, std::shared_ptr<std::string> bytes) {
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    // The file only grows, so the resident page and these bytes are both
    // prefixes of its page: keep the longer. A read that raced an append
    // thus never replaces the noted bytes with its older copy.
    if (it->second.bytes->size() < bytes->size()) {
      bytes_cached_ -= it->second.bytes->size();
      // Replace the buffer wholesale (never mutate): outstanding pins keep
      // the old buffer alive and see a frozen snapshot.
      it->second.bytes = std::move(bytes);
      bytes_cached_ += it->second.bytes->size();
    }
    Touch(&it->second);
    return;
  }
  Page page;
  bytes_cached_ += bytes->size();
  page.bytes = std::move(bytes);
  AddPage(key, std::move(page));
}

void PageCache::EvictIfNeeded() {
  ExpireWrites(clock_->NowMs());
  // Clean (flushed) pages go first, preserving the freshly written head of
  // the log in RAM; dirty pages are force-evicted only if the cache is still
  // over capacity (the OS would block on writeback here).
  const int64_t evictions_before = evictions_;
  for (LruSet* lru : {&clean_lru_, &dirty_lru_}) {
    while (bytes_cached_ > config_.capacity_bytes && !lru->empty()) {
      if (lru == &dirty_lru_) ++forced_evictions_;
      Drop(pages_.find(lru->begin()->second));
      ++evictions_;
    }
  }
  if (evictions_counter_ && evictions_ > evictions_before) {
    evictions_counter_->Increment(evictions_ - evictions_before);
  }
}

Status PageCache::Read(uint64_t file_id, const File& file, uint64_t offset,
                       size_t n, std::string* out) {
  out->clear();
  if (n == 0) return Status::OK();
  const uint64_t file_size = file.Size();
  if (offset >= file_size) return Status::OK();
  n = std::min<uint64_t>(n, file_size - offset);
  out->reserve(n);

  const size_t page_size = config_.page_size;
  const uint64_t end = offset + n;
  const uint64_t last_page = (end - 1) / page_size;
  // The bytes of page `p` the read needs, counted from the page's start; the
  // file holds all of them.
  const auto needed = [&](uint64_t p) {
    return static_cast<size_t>(std::min<uint64_t>(end, (p + 1) * page_size) -
                               p * page_size);
  };
  uint64_t page_no = offset / page_size;
  while (page_no <= last_page) {
    const uint64_t page_start = page_no * page_size;
    // Holding a reference pins the buffer: NoteAppend never moves or
    // rewrites the bytes it holds, so copying them outside the lock is safe.
    // Its length is taken under the lock, since appends may extend the
    // buffer in place.
    std::shared_ptr<const std::string> page_bytes;
    size_t page_len = 0;
    // On a miss, the end of the run of pages from page_no on that the read
    // needs and the cache cannot serve, found in the same hold.
    uint64_t run_end = page_no + 1;
    {
      MutexLock lock(&mu_);
      if (Page* page = FindServing(MakeKey(file_id, page_no), needed(page_no))) {
        page_bytes = page->bytes;
        page_len = page_bytes->size();
        Touch(page);
        ++hits_;
        if (hits_counter_) hits_counter_->Increment();
      } else {
        ++misses_;
        if (misses_counter_) misses_counter_->Increment();
        while (run_end <= last_page &&
               !FindServing(MakeKey(file_id, run_end), needed(run_end))) {
          ++run_end;
        }
      }
    }
    if (page_bytes) {
      const uint64_t want_begin = std::max<uint64_t>(offset, page_start);
      const uint64_t want_end = std::min<uint64_t>(end, page_start + page_len);
      out->append(page_bytes->data() + (want_begin - page_start),
                  want_end - want_begin);
      ++page_no;
      continue;
    }
    // Miss: fetch the whole run, and at least the read-ahead, in one
    // sequential disk read (single seek), as the OS would.
    const uint64_t fetch_pages = std::max<uint64_t>(
        run_end - page_no, std::max(1, config_.readahead_pages));
    std::string chunk;
    LIQUID_RETURN_NOT_OK(
        file.ReadAt(page_start, fetch_pages * page_size, &chunk));
    if (chunk.empty()) break;
    std::vector<std::shared_ptr<std::string>> fetched;
    fetched.reserve((chunk.size() + page_size - 1) / page_size);
    for (size_t begin = 0; begin < chunk.size(); begin += page_size) {
      fetched.push_back(std::make_shared<std::string>(
          chunk, begin, std::min(page_size, chunk.size() - begin)));
    }
    if (disk_read_pages_) {
      disk_read_pages_->Record(static_cast<int64_t>(fetched.size()));
    }
    {
      MutexLock lock(&mu_);
      for (size_t i = 0; i < fetched.size(); ++i) {
        InsertPage(MakeKey(file_id, page_no + i), std::move(fetched[i]));
      }
      EvictIfNeeded();
    }
    // Serve the run from the chunk itself: eviction may already have dropped
    // its first pages when the run is longer than the cache.
    const uint64_t run_bytes_end = std::min<uint64_t>(end, run_end * page_size);
    const uint64_t want_begin = std::max<uint64_t>(offset, page_start);
    const uint64_t want_end =
        std::min<uint64_t>(run_bytes_end, page_start + chunk.size());
    if (want_begin >= want_end) break;
    out->append(chunk.data() + (want_begin - page_start),
                want_end - want_begin);
    // A chunk short of the run means the file was truncated meanwhile.
    if (want_end < run_bytes_end) break;
    page_no = run_end;
  }
  return Status::OK();
}

PageCache::PinnedPage PageCache::Pin(uint64_t file_id, uint64_t offset) {
  const uint64_t page_no = offset / config_.page_size;
  MutexLock lock(&mu_);
  auto it = pages_.find(MakeKey(file_id, page_no));
  if (it == pages_.end()) return PinnedPage{};
  Touch(&it->second);
  ++hits_;
  if (hits_counter_) hits_counter_->Increment();
  return PinnedPage{it->second.bytes, page_no * config_.page_size};
}

void PageCache::NoteAppend(uint64_t file_id, uint64_t offset, const Slice& data) {
  if (data.empty()) return;
  const size_t page_size = config_.page_size;
  MutexLock lock(&mu_);
  // Read under the lock, so writes_ stays in write-time order.
  const int64_t now = clock_->NowMs();
  uint64_t pos = 0;
  while (pos < data.size()) {
    const uint64_t abs = offset + pos;
    const uint64_t page_no = abs / page_size;
    const uint64_t page_start = page_no * page_size;
    const size_t in_page_off = static_cast<size_t>(abs - page_start);
    const size_t len =
        std::min<size_t>(page_size - in_page_off, data.size() - pos);

    const uint64_t key = MakeKey(file_id, page_no);
    auto it = pages_.find(key);
    if (it != pages_.end() && it->second.bytes->size() < in_page_off) {
      // The page ends short of this append: a read that raced an earlier
      // append cached the page without it. Extending it would serve zeros
      // for the missing bytes, so drop it.
      Drop(it);
      it = pages_.end();
    }
    if (it == pages_.end() && in_page_off > 0) {
      // The page's head was evicted: a page built from the appended bytes
      // alone would serve zeros for it. Leave the page to the next miss.
      pos += len;
      continue;
    }
    // A dirty page written in this same millisecond already has its
    // flush-window expiry queued.
    bool queued = false;
    if (it == pages_.end()) {
      Page page;
      page.dirty = true;
      it = AddPage(key, std::move(page));
    } else {
      queued = it->second.dirty && it->second.last_write_ms == now;
      Touch(&it->second, /*dirty=*/true);
    }
    it->second.last_write_ms = now;
    if (!queued) writes_.emplace_back(now, key);
    Page& page = it->second;
    if (!page.bytes || page.bytes->capacity() < in_page_off + len ||
        page.bytes->size() > in_page_off) {
      // A pin (or an in-flight Read copy) may be reading this buffer with no
      // lock held, so the bytes it holds are never moved or rewritten:
      // growing past its capacity (or, defensively, overwriting) builds a
      // new buffer instead, reserved for the whole page so later appends
      // extend it in place. Checking use_count() for pins would not do: a
      // relaxed count read does not order a reader's last access before
      // the write.
      auto grown = std::make_shared<std::string>();
      grown->reserve(page_size);
      if (page.bytes) grown->assign(*page.bytes);
      page.bytes = std::move(grown);
    }
    std::string& buf = *page.bytes;
    if (buf.size() < in_page_off + len) {
      bytes_cached_ += in_page_off + len - buf.size();
      buf.resize(in_page_off + len);
    }
    std::memcpy(buf.data() + in_page_off, data.data() + pos, len);
    pos += len;
  }
  EvictIfNeeded();
}

void PageCache::Invalidate(uint64_t file_id, uint64_t from_offset) {
  const uint64_t first_page = from_offset / config_.page_size;
  MutexLock lock(&mu_);
  for (auto it = pages_.begin(); it != pages_.end();) {
    const uint64_t fid = it->first >> 40;
    const uint64_t page_no = it->first & ((1ull << 40) - 1);
    it = fid == file_id && page_no >= first_page ? Drop(it) : std::next(it);
  }
}

bool PageCache::Resident(uint64_t file_id, uint64_t offset) const {
  MutexLock lock(&mu_);
  return pages_.count(MakeKey(file_id, offset / config_.page_size)) > 0;
}

int64_t PageCache::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}
int64_t PageCache::misses() const {
  MutexLock lock(&mu_);
  return misses_;
}
int64_t PageCache::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}
int64_t PageCache::forced_evictions() const {
  MutexLock lock(&mu_);
  return forced_evictions_;
}
size_t PageCache::bytes_cached() const {
  MutexLock lock(&mu_);
  return bytes_cached_;
}

CachedFile::CachedFile(std::unique_ptr<File> base, PageCache* cache)
    : base_(std::move(base)), cache_(cache), file_id_(cache->NewFileId()) {}

Status CachedFile::Append(const Slice& data) {
  const uint64_t offset = base_->Size();
  LIQUID_RETURN_NOT_OK(base_->Append(data));
  cache_->NoteAppend(file_id_, offset, data);
  return Status::OK();
}

Status CachedFile::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  return cache_->Read(file_id_, *base_, offset, n, out);
}

uint64_t CachedFile::Size() const { return base_->Size(); }

Status CachedFile::Sync() { return base_->Sync(); }

Status CachedFile::Truncate(uint64_t size) {
  LIQUID_RETURN_NOT_OK(base_->Truncate(size));
  cache_->Invalidate(file_id_, size);
  return Status::OK();
}

}  // namespace liquid::storage
