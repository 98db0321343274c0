#ifndef LIQUID_MESSAGING_METADATA_H_
#define LIQUID_MESSAGING_METADATA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/log.h"

namespace liquid::messaging {

/// Identifies one partition of one topic.
struct TopicPartition {
  std::string topic;
  int partition = 0;

  bool operator==(const TopicPartition& other) const {
    return partition == other.partition && topic == other.topic;
  }
  bool operator<(const TopicPartition& other) const {
    if (topic != other.topic) return topic < other.topic;
    return partition < other.partition;
  }

  // liquid-lint: allow(hot-alloc): formats a partition name on demand; hot paths reach this only on traced/error/log branches and callers that must own a string key.
  std::string ToString() const { return topic + "-" + std::to_string(partition); }
};

/// Hash functor so TopicPartition can key unordered containers.
struct TopicPartitionHash {
  size_t operator()(const TopicPartition& tp) const {
    return std::hash<std::string>()(tp.topic) * 31 +
           static_cast<size_t>(tp.partition);
  }
};

/// Per-topic configuration set at creation time.
struct TopicConfig {
  int partitions = 1;
  int replication_factor = 1;
  storage::LogConfig log;
  /// Produce with acks=all fails unless at least this many replicas
  /// (including the leader) are in sync.
  int min_insync_replicas = 1;
  /// If the ISR is empty on failover, allow electing a non-ISR replica
  /// (availability over durability).
  bool unclean_leader_election = false;
};

/// Replication state of one partition, maintained by the controller in the
/// coordination service (§4.3).
struct PartitionState {
  int leader = -1;       // Broker id; -1 = offline.
  int leader_epoch = 0;  // Bumped on every leader change.
  std::vector<int> replicas;
  std::vector<int> isr;  // In-sync replicas, always a subset of replicas.

  std::string Serialize() const;
  static Result<PartitionState> Parse(const std::string& data);
};

/// Durability level requested by a producer (§4.3 performance/durability
/// trade-off).
enum class AckMode {
  kNone = 0,  // Fire and forget: acknowledged before even the local append.
  kLeader = 1,  // Acknowledged after the leader's local append.
  kAll = -1,    // Acknowledged after every ISR member has the data.
};

/// Broker reply to a produce request: where the batch landed in the log.
struct ProduceResponse {
  int64_t base_offset = -1;
  int64_t log_end_offset = -1;
  /// Quota verdict (§4.5): how long the caller must back off before its next
  /// request. The broker never sleeps on the request path — clients enforce
  /// their own throttle (see Producer), keeping broker threads available.
  int64_t throttle_ms = 0;
};

/// One aborted transaction's data in a partition: the records of `pid` with
/// offsets in [first_offset, last_offset) were rolled back, and the abort
/// marker sits at last_offset.
struct AbortedTxn {
  int64_t pid = storage::kNoProducerId;
  int64_t first_offset = 0;
  int64_t last_offset = 0;
};

/// Broker reply to a fetch request: encoded frames plus the log offsets a
/// consumer needs to track its position and compute lag (high_watermark −
/// position).
struct FetchResponse {
  /// The fetched frames in offset order, one Log::ReadEncoded step per
  /// batch; a batch is a pinned page-cache buffer when its bytes were
  /// resident (zero-copy). Replica fetches see the whole log and append
  /// these bytes verbatim. Consumer fetches stop below the visibility bound
  /// (high watermark, or the last stable offset for read_committed) but
  /// still carry control markers and aborted data: DecodeRecords drops them
  /// on the client side, as Kafka's read_committed client does.
  std::vector<storage::EncodedBatch> batches;
  /// read_committed fetches only: the aborted transactions overlapping the
  /// fetched offsets.
  std::vector<AbortedTxn> aborted;
  int64_t high_watermark = 0;
  int64_t log_start_offset = 0;
  int64_t log_end_offset = 0;
  /// Where the consumer should fetch next: one past the last fetched frame,
  /// which may be beyond the last record DecodeRecords yields (control
  /// markers and aborted data occupy offsets too).
  int64_t next_fetch_offset = 0;
  /// Same client-side throttle contract as ProduceResponse::throttle_ms.
  int64_t throttle_ms = 0;

  /// Whether an application sees this frame's record: false for control
  /// markers and for records of `aborted` transactions.
  bool Visible(const storage::BatchFrame& frame) const;

  /// Decodes the records an application sees (the Visible frames),
  /// appending them to `out`. Frames were CRC-checked when the segment scan
  /// parsed them, so decoding does not check again.
  Status DecodeRecords(std::vector<storage::Record>* out) const;
};

/// Coordination-service paths used by brokers and the controller.
namespace paths {

inline std::string BrokersRoot() { return "/brokers"; }
inline std::string BrokerIds() { return "/brokers/ids"; }
inline std::string Broker(int id) {
  return "/brokers/ids/" + std::to_string(id);
}
inline std::string Controller() { return "/controller"; }
inline std::string TopicsRoot() { return "/topics"; }
inline std::string Topic(const std::string& topic) { return "/topics/" + topic; }
inline std::string Partitions(const std::string& topic) {
  return "/topics/" + topic + "/partitions";
}
inline std::string PartitionStatePath(const TopicPartition& tp) {
  return "/topics/" + tp.topic + "/partitions/" + std::to_string(tp.partition);
}

}  // namespace paths

}  // namespace liquid::messaging

#endif  // LIQUID_MESSAGING_METADATA_H_
