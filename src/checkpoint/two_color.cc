#include "checkpoint/two_color.h"

#include <algorithm>

namespace mmdb {

Status TwoColorCheckpointer::ProcessSegment(SegmentId s, double now) {
  // Either variant checks the segment's LSN to satisfy the write-ahead
  // protocol before the image reaches the backup disks.
  ctx_.meter->Charge(CpuCategory::kCkptLsn,
                     static_cast<double>(ctx_.params.costs.lsn));
  Lsn required = std::max(ctx_.segments->update_lsn(s), begin_marker_lsn_);

  if (copy_before_flush_) {
    // 2CCOPY: lock, stage into a buffer, unlock, then flush the buffer.
    ChargeCkptLocks(2);
    ctx_.meter->Charge(CpuCategory::kCkptCopy,
                       2.0 * static_cast<double>(ctx_.params.costs.alloc) +
                           ctx_.params.costs.move_per_word *
                               ctx_.params.db.segment_words);
    ++stats_.checkpointer_copies;
    ctx_.segments->Paint(s, PaintColor::kBlack);
    MMDB_ASSIGN_OR_RETURN(double durable_at, WhenLogDurable(required, now));
    double earliest = std::max(sweep_start_, durable_at);
    return SubmitWrite(s, ctx_.db->ReadSegment(s), now, earliest,
                       /*lock_through_io=*/false)
        .status();
  }

  // 2CFLUSH: lock and hold through the disk I/O (and through any LSN
  // delay); the image goes straight from database memory to disk.
  ChargeCkptLocks(2);
  ctx_.segments->Paint(s, PaintColor::kBlack);
  MMDB_ASSIGN_OR_RETURN(double durable_at, WhenLogDurable(required, now));
  double earliest = std::max(sweep_start_, durable_at);
  return SubmitWrite(s, ctx_.db->ReadSegment(s), now, earliest,
                     /*lock_through_io=*/true)
      .status();
}

void TwoColorCheckpointer::OnSkipSegment(SegmentId s) {
  // A clean segment is trivially "in" the checkpoint (the backup copy
  // already holds its current contents) but must still turn black so the
  // color constraint keeps seeing a single advancing boundary.
  ctx_.segments->Paint(s, PaintColor::kBlack);
}

bool TwoColorCheckpointer::AdmitAccess(
    std::span<const SegmentId> segments, double) {
  if (state_ != State::kSweeping) return true;  // colors are uniform
  bool white = false;
  bool black = false;
  for (SegmentId s : segments) {
    if (ctx_.segments->color(s) == PaintColor::kBlack) {
      black = true;
    } else {
      white = true;
    }
  }
  return !(white && black);
}

Status TwoColorCheckpointer::OnComplete(double) {
  // Every segment is black now; O(1)-flip them all back to white for the
  // next checkpoint.
  ctx_.segments->FlipColors();
  return Status::OK();
}

void TwoColorCheckpointer::Reset() {
  // A crash mid-checkpoint leaves a mix of colors; repaint everything
  // white so the next checkpoint starts from a clean slate.
  for (SegmentId s = 0; s < ctx_.segments->num_segments(); ++s) {
    ctx_.segments->Paint(s, PaintColor::kWhite);
  }
  Checkpointer::Reset();
}

}  // namespace mmdb
