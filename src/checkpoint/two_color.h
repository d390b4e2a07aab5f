#ifndef MMDB_CHECKPOINT_TWO_COLOR_H_
#define MMDB_CHECKPOINT_TWO_COLOR_H_

#include "checkpoint/checkpointer.h"

namespace mmdb {

// The two-color (paint-bit) algorithms of Section 3.2.1, after Pu's
// on-the-fly consistent-reading scheme. Every segment starts a checkpoint
// white; the checkpointer takes each segment, processes it, and paints it
// black. Transaction-consistency comes from the admission rule enforced
// through AdmitAccess: no transaction may touch both white and black data
// while the checkpoint runs — violators abort and rerun, which is the
// dominant cost of this family in the paper's results.
//
// Variants:
//   2CFLUSH (copy_before_flush=false): the segment stays read-locked for
//     the whole disk I/O (plus any write-ahead LSN delay). No data is ever
//     copied in memory — the cheapest algorithm per segment, but updates to
//     the segment stall for tens of milliseconds.
//   2CCOPY (copy_before_flush=true): the segment is locked only long
//     enough to stage it into a buffer; the flush happens from the buffer.
//     Costs C_alloc + a segment move per segment, releases locks quickly.
class TwoColorCheckpointer : public Checkpointer {
 public:
  TwoColorCheckpointer(const Context& ctx, CheckpointMode mode,
                       bool copy_before_flush)
      : Checkpointer(ctx, mode), copy_before_flush_(copy_before_flush) {}

  Algorithm algorithm() const override {
    return copy_before_flush_ ? Algorithm::kTwoColorCopy
                              : Algorithm::kTwoColorFlush;
  }

  // Pu's constraint: reject access sets spanning the color boundary while
  // the sweep is active.
  bool AdmitAccess(std::span<const SegmentId> segments,
                   double now) override;

  void Reset() override;

 protected:
  Status ProcessSegment(SegmentId s, double now) override;
  void OnSkipSegment(SegmentId s) override;
  Status OnComplete(double now) override;

 private:
  bool copy_before_flush_;
};

}  // namespace mmdb

#endif  // MMDB_CHECKPOINT_TWO_COLOR_H_
