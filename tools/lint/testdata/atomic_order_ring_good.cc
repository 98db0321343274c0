// Lint corpus: atomic-order must stay SILENT on a CAS-claim / publish /
// consume idiom done right (the discipline LogSegment::Flush's CAS follows):
// every non-relaxed member op carries an `// order:` comment naming the edge
// it creates, relaxed ops claim no contract and need none, and the
// Dekker-style atomic_thread_fence is a free function the member-op rule
// does not key on (its pairing argument lives at the use site).
#include "lint_stubs.h"

namespace liquid {

class DisciplinedRing {
 public:
  LIQUID_HOT_PATH
  long Claim(long n) {
    // order: acquire pairs with Reset's release reopen of the claim word.
    long cur = reserve_.load(memory_order_acquire);
    for (;;) {
      // order: success/failure acquire pair with Reset's release (a recycled gate value must come with the cleared slots).
      if (reserve_.compare_exchange_weak(cur, cur + n, memory_order_acquire,
                                         memory_order_acquire)) {
        return cur;
      }
    }
  }

  LIQUID_HOT_PATH
  void Publish(long base) {
    // order: release publishes the slot payload with its sequence word (pairs with the drainer's acquire load).
    seq_.store(base, memory_order_release);
    // Dekker handshake with the parked drainer: the fence totally orders
    // this publish against the parked-flag read below.
    atomic_thread_fence(memory_order_seq_cst);
    parked_.load(memory_order_relaxed);
  }

  void Close() {
    // Cold mutator path (not reached from a hot root): gate transitions run
    // under the pipeline mutex, so the relaxed RMW claims no extra edge.
    reserve_.fetch_or(1, memory_order_relaxed);
  }

 private:
  Atomic<long> reserve_;
  Atomic<long> seq_;
  Atomic<bool> parked_;
};

}  // namespace liquid
