#ifndef LIQUID_COMMON_TRACE_H_
#define LIQUID_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace liquid {

/// Trace identity carried by a record across the stack (producer -> broker ->
/// consumer -> job -> downstream publishes and changelogs). A record with
/// trace_id == 0 is untraced and pays no tracing cost anywhere.
///
/// The context rides in the record header (see storage/record.h): the wire
/// encoding appends {trace_id, span_id, ingest_us} only when the trace bit in
/// the attributes byte is set, so untraced records are byte-identical to the
/// pre-tracing format.
struct TraceContext {
  /// Identifies one record's end-to-end journey; 0 = untraced.
  uint64_t trace_id = 0;
  /// The span that last touched the record; downstream hops use it as their
  /// parent, which links hops into one tree per trace.
  uint64_t span_id = 0;
  /// Microsecond timestamp of the record's first entry into the system
  /// (stamped by the producer). End-to-end latency = now - ingest_us.
  int64_t ingest_us = 0;

  bool active() const { return trace_id != 0; }
};

/// One hop of a traced record's journey, recorded by the component that
/// performed it. Well-known names: "produce" (producer -> leader), "append"
/// (leader log append), "replicate" (follower append), "fetch" (leader ->
/// consumer), "process" (job task), "changelog" (a commit's store-update publish).
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  /// Span id of the previous hop (the record's span_id at arrival); 0 for
  /// root spans.
  uint64_t parent_span_id = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  std::string name;    // Hop kind, e.g. "produce", "append", "fetch".
  std::string detail;  // Usually the topic-partition or job name.
};

/// Process-wide, bounded, sampled span sink.
///
/// Sampling is decided once per record at the producer (every Nth record for
/// a configured rate); everything downstream keys off the record's trace_id,
/// so the rate knob is a single atomic read on the hot path and a disabled
/// collector (the default) costs one predicted-false branch per record.
///
/// Storage is a fixed-capacity ring: recording never blocks on memory growth
/// and old spans are overwritten (dropped() counts overwrites). All methods
/// are thread-safe.
class TraceCollector {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit TraceCollector(size_t capacity = kDefaultCapacity);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// The process-wide collector every component records into.
  static TraceCollector* Default();

  /// Fraction of produced records to trace, in [0, 1]. 0 (the default)
  /// disables tracing entirely; 1 traces every record. Rates in between are
  /// applied as "every Nth record" with N = round(1/rate), so sampling is
  /// deterministic and spreads evenly under steady load.
  void SetSampleRate(double rate);
  double sample_rate() const;

  /// True when any sampling is configured (single relaxed atomic load).
  bool enabled() const {
    return sample_stride_.load(std::memory_order_relaxed) != 0;
  }

  /// Consumes one sampling decision: true when the caller should start a
  /// trace for the record at hand.
  bool ShouldSample();

  /// Fresh process-unique ids (monotonic; never 0). Uniqueness needs only
  /// the atomic increment itself, so relaxed ordering suffices.
  uint64_t NewTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one hop to the ring (overwrites the oldest span when full).
  void Record(Span span) EXCLUDES(mu_);

  /// All retained spans, oldest first.
  std::vector<Span> Snapshot() const EXCLUDES(mu_);

  /// Retained spans of one trace, oldest first.
  std::vector<Span> Trace(uint64_t trace_id) const EXCLUDES(mu_);

  /// Drops all retained spans (test isolation); ids keep increasing so
  /// cleared traces can never collide with later ones.
  void Clear() EXCLUDES(mu_);

  /// Total spans ever recorded / overwritten because the ring was full.
  int64_t recorded() const EXCLUDES(mu_);
  int64_t dropped() const EXCLUDES(mu_);

  /// Resizes the ring, keeping the newest spans that fit.
  void SetCapacity(size_t capacity) EXCLUDES(mu_);

 private:
  // Sampling: stride 0 = disabled, stride N = trace every Nth record.
  std::atomic<uint64_t> sample_stride_{0};
  std::atomic<uint64_t> decision_counter_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};

  mutable Mutex mu_;
  std::vector<Span> ring_ GUARDED_BY(mu_);
  size_t capacity_ GUARDED_BY(mu_);
  size_t next_slot_ GUARDED_BY(mu_) = 0;  // Ring cursor once full.
  int64_t recorded_ GUARDED_BY(mu_) = 0;
  int64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace liquid

#endif  // LIQUID_COMMON_TRACE_H_
