// Lint corpus: atomic-order MUST fire on a CAS-claim / publish / consume
// idiom done wrong (LogSegment::Flush's CAS-max on synced_pos_ is the live
// CAS user). Claim() is a hot-path root; the CAS with bare seq_cst defaults,
// the unjustified release publish, and the unjustified acquire consume are
// each findings.
#include "lint_stubs.h"

namespace liquid {

class SloppyRing {
 public:
  LIQUID_HOT_PATH
  long Claim(long n) {
    long cur = reserve_.load(memory_order_acquire);  // non-relaxed, unjustified
    for (;;) {
      // bare seq_cst defaults on both CAS orders: the pairing is unstated.
      if (reserve_.compare_exchange_weak(cur, cur + n)) return cur;
    }
  }

  LIQUID_HOT_PATH
  void Publish(long base) {
    seq_.store(base, memory_order_release);  // non-relaxed, unjustified
  }

 private:
  Atomic<long> reserve_;
  Atomic<long> seq_;
};

}  // namespace liquid
