#ifndef MMDB_STORAGE_DATABASE_H_
#define MMDB_STORAGE_DATABASE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/cost_model.h"
#include "util/status.h"
#include "util/types.h"

namespace mmdb {

// The primary, memory-resident copy of the database: a flat array of
// fixed-size records grouped into segments (Section 2.4). This is plain
// volatile storage — crash semantics, locking and checkpoint state live in
// higher layers (Engine, SegmentTable).
//
// Layout: record r occupies bytes [r*record_bytes, (r+1)*record_bytes);
// segment s spans records [s*records_per_segment, (s+1)*records_per_segment).
//
// Memory: one calloc'd block advised MADV_HUGEPAGE, so a large database
// stays within the TLB's reach (a 64 MiB copy is about 32 huge pages
// instead of 16,384 small ones; glibc maps a block that large afresh and
// unmaps it when freed). It is faulted in at construction, so no page
// fault lands inside a transaction or a recovery load (DESIGN.md §12).
class Database {
 public:
  explicit Database(const DatabaseParams& params);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseParams& params() const { return params_; }
  uint64_t num_records() const { return params_.num_records(); }
  uint64_t num_segments() const { return params_.num_segments(); }
  size_t record_bytes() const { return record_bytes_; }
  size_t segment_bytes() const { return segment_bytes_; }

  SegmentId SegmentOf(RecordId record) const {
    return record / params_.records_per_segment();
  }

  // Raw access. Views are invalidated by Clear()/LoadSegment resizing
  // (which never happens after construction — the database is fixed-size).
  std::string_view ReadRecord(RecordId record) const;
  void WriteRecord(RecordId record, std::string_view data);

  std::string_view ReadSegment(SegmentId segment) const;
  // Overwrites a whole segment (used by recovery and by tests).
  void WriteSegment(SegmentId segment, std::string_view data);

  // Zeroes all contents (models the loss of volatile memory at a crash
  // followed by reallocation at restart).
  void Clear();

  // Checksum of the full database image; used by tests to compare states.
  uint32_t Checksum() const;

  // Direct byte access for bulk operations (backup writes, recovery reads).
  const char* data() const { return bytes_; }
  char* mutable_data() { return bytes_; }
  size_t size_bytes() const { return size_bytes_; }

 private:
  DatabaseParams params_;
  size_t record_bytes_;
  size_t segment_bytes_;
  size_t size_bytes_;
  char* bytes_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_DATABASE_H_
