#ifndef LIQUID_KV_WAL_H_
#define LIQUID_KV_WAL_H_

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "kv/sstable.h"
#include "storage/disk.h"

namespace liquid::kv {

/// Write-ahead log for the LSM store: every mutation is appended (and CRC
/// protected) before it reaches the memtable, so an un-flushed memtable can be
/// rebuilt after a crash.
class WriteAheadLog {
 public:
  static Result<std::unique_ptr<WriteAheadLog>> Open(storage::Disk* disk,
                                                     const std::string& name);

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one mutation record.
  Status Append(const Entry& entry) { return AppendBatch({&entry, 1}); }

  /// Appends one CRC-protected frame per entry, in order, with a single file
  /// write. A crash can keep a prefix of the frames; replay then stops at
  /// the torn one.
  Status AppendBatch(std::span<const Entry> entries);

  /// Invokes `fn` for every intact record in order. A truncated final frame
  /// (torn write from a crash) ends the replay cleanly with OK — that is the
  /// expected crash artifact. A *complete* frame that fails its CRC or does
  /// not decode is real corruption: the intact prefix is still delivered,
  /// then Corruption is returned so the caller never silently serves a store
  /// missing acknowledged writes.
  Status Replay(const std::function<void(const Entry&)>& fn) const;

  /// Truncates the log to empty (after a successful memtable flush).
  Status Reset();

  uint64_t size_bytes() const { return file_->Size(); }

 private:
  WriteAheadLog(storage::Disk* disk, std::unique_ptr<storage::File> file,
                std::string name);

  storage::Disk* disk_;
  std::unique_ptr<storage::File> file_;
  std::string name_;
};

}  // namespace liquid::kv

#endif  // LIQUID_KV_WAL_H_
