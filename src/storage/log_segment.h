#ifndef LIQUID_STORAGE_LOG_SEGMENT_H_
#define LIQUID_STORAGE_LOG_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk.h"
#include "storage/page_cache.h"
#include "storage/record.h"
#include "storage/record_batch.h"

namespace liquid::storage {

/// One file of a partition's append-only log, plus its in-memory sparse offset
/// index and time index (§4.1: "brokers maintain an incrementally-built index
/// file that is used to select the chunks of the log at which requested
/// offsets are stored").
///
/// Not internally synchronized. The owning Log serializes appends
/// (exclusive) against the index and size lookups (shared); the copying
/// read is split so that only its ReadSpan snapshot needs that lock, and
/// its file scan runs with none (Log::ReadEncoded).
class LogSegment {
 public:
  /// A sparse index entry every `index_interval_bytes` of appended data.
  /// An interval of 0 indexes every record (dense); SIZE_MAX disables the
  /// index entirely (forces scans) — both used by the index ablation bench.
  struct Config {
    size_t index_interval_bytes = 4096;
  };

  /// Opens (creating if absent) the segment whose data file is
  /// "<name_prefix><base_offset, 20 digits>.log". Recovers the index by
  /// scanning existing data, truncating any corrupt tail.
  /// `cache` may be null (reads go straight to disk).
  static Result<std::unique_ptr<LogSegment>> Open(Disk* disk, PageCache* cache,
                                                  const std::string& name_prefix,
                                                  int64_t base_offset,
                                                  const Config& config);

  LogSegment(const LogSegment&) = delete;
  LogSegment& operator=(const LogSegment&) = delete;

  /// Appends a pre-encoded batch, the segment's only append path: the batch
  /// bytes go to the file verbatim in one write, and the index is fed from
  /// the batch's frame metadata. Offsets must ascend from next_offset();
  /// gaps are legal (compaction produces them).
  Status AppendEncoded(const EncodedBatch& batch);

  /// What a copying read of records with offset >= from_offset scans: file
  /// bytes [pos, end) as committed when the span was taken, where
  /// next_offset was one past the last record.
  struct ReadSpan {
    int64_t from_offset = 0;
    uint64_t pos = 0;
    uint64_t end = 0;
    int64_t next_offset = 0;
  };

  /// The span of a read from `from_offset`: the indexed position at or
  /// before it up to the committed end. Needs the owning Log's lock (the
  /// index and the end move with appends).
  ReadSpan SpanFrom(int64_t from_offset) const;

  /// The segment's one copying read: collects the raw encoded frames in
  /// `span` with offset >= span.from_offset into `buf` (appending) plus
  /// their framing into `frames` (positions relative to `buf`) until
  /// `max_bytes` have been gathered, at least one frame if any qualifies.
  /// CRCs are verified while scanning; a bad frame is Corruption. It reads
  /// the file only, so it needs no lock while the segment is kept from
  /// being dropped or rewritten: bytes below span.end never change, and
  /// appends only add past it.
  Status ReadEncoded(const ReadSpan& span, size_t max_bytes, std::string* buf,
                     std::vector<BatchFrame>* frames) const;

  /// Zero-copy read: when the bytes holding `from_offset` are resident in the
  /// page cache, returns an EncodedBatch whose buffer IS the pinned page —
  /// frames reference it directly, and the pin keeps the bytes alive and
  /// immutable across later appends, eviction and invalidation (the cache
  /// clones a pinned page before extending it). Returns an empty batch when
  /// the fast path does not apply — no cache, a cache miss, or the first
  /// qualifying record crossing the page edge — so callers fall back to the
  /// copying ReadEncoded. CRCs are verified while parsing, like ReadEncoded.
  Result<EncodedBatch> ReadEncodedPinned(int64_t from_offset,
                                         size_t max_bytes) const;

  /// First offset whose record timestamp is >= ts_ms, or NotFound. Scans
  /// frame headers only; no key/value bytes are decoded.
  Result<int64_t> OffsetForTimestamp(int64_t ts_ms) const;

  int64_t base_offset() const { return base_offset_; }
  /// One past the last appended offset; == base_offset() when empty.
  int64_t next_offset() const { return next_offset_; }
  uint64_t size_bytes() const { return end_pos_; }
  int64_t max_timestamp_ms() const { return max_timestamp_ms_; }
  bool empty() const { return next_offset_ == base_offset_; }
  const std::string& file_name() const { return file_name_; }

  /// fsyncs the file and advances the durable watermark dirty() keys off to
  /// `target`, the size_bytes() the caller snapshotted under the owning
  /// Log's lock before the call. Called only by the Log's committer, with
  /// no log lock held but the log pinned (so the segment is not dropped):
  /// appends may grow the segment meanwhile, and the bytes they add past
  /// `target` stay dirty for the next flush.
  Status Flush(uint64_t target);

  /// True when bytes appended after the last successful Flush() exist; the
  /// group committer uses this to sync only segments that need it.
  bool dirty() const {
    // order: acquire pairs with Flush()'s release so a caller that sees the
    // watermark also sees the bytes as synced in the backing file.
    return synced_pos_.load(std::memory_order_acquire) < end_pos_;
  }

  /// Removes the backing file. The segment must not be used afterwards.
  Status Drop();

 private:
  LogSegment(Disk* disk, std::unique_ptr<File> file, std::string file_name,
             int64_t base_offset, const Config& config);

  /// Scans existing bytes to rebuild the index; truncates a corrupt tail.
  Status Recover();

  /// The segment's one file walk, shared by Recover, ReadEncoded and
  /// OffsetForTimestamp: parses the frames stored at file positions
  /// [pos, end), CRC-verifying each, and calls visit(frame, bytes) with
  /// frame.pos set to the file position, until visit returns false. Returns
  /// Corruption at the first frame that is malformed, fails its CRC or runs
  /// past `end`.
  template <typename Visit>
  Status ScanFrames(uint64_t pos, uint64_t end, Visit&& visit) const;

  /// Greatest indexed file position whose offset is <= target.
  uint64_t LookupPosition(int64_t target_offset) const;

  void MaybeIndex(int64_t offset, uint64_t position, int64_t timestamp_ms,
                  size_t record_bytes);

  struct IndexEntry {
    int64_t offset;
    uint64_t position;
  };
  struct TimeIndexEntry {
    int64_t timestamp_ms;
    int64_t offset;
  };

  Disk* disk_;
  std::unique_ptr<File> file_;
  /// Set when file_ is a CachedFile (page cache present): the typed handle
  /// the zero-copy read path pins pages through. Owned by file_.
  CachedFile* cached_file_ = nullptr;
  std::string file_name_;
  int64_t base_offset_;
  Config config_;
  /// Bytes [0, synced_pos_) were covered by a successful Flush(): the size
  /// snapshotted before that fsync started. Atomic because the committer
  /// flushes with no log lock held, beside appends and readers; 0 after
  /// open (recovery does not know what the last process synced, so the
  /// first flush conservatively covers the whole file).
  std::atomic<uint64_t> synced_pos_{0};

  std::vector<IndexEntry> index_;
  std::vector<TimeIndexEntry> time_index_;
  size_t bytes_since_index_ = 0;
  int64_t next_offset_;
  uint64_t end_pos_ = 0;
  int64_t max_timestamp_ms_ = 0;
};

}  // namespace liquid::storage

#endif  // LIQUID_STORAGE_LOG_SEGMENT_H_
