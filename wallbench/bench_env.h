#ifndef WALLBENCH_BENCH_ENV_H_
#define WALLBENCH_BENCH_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "env/env.h"
#include "spans.h"

namespace wallbench {

// File classes by name: the WAL streams (wal.log*), the ping-pong backup
// copies (backup_*.db), checkpoint metadata (CHECKPOINT*) and the
// provenance journal (audit.log). Anything else is kOther.
enum class FileClass : uint8_t { kWal, kBackup, kMeta, kAudit, kOther };
inline constexpr size_t kNumFileClasses = 5;
FileClass ClassifyPath(std::string_view path);
std::string_view FileClassName(FileClass c);

enum class FileOp : uint8_t { kRead, kWrite, kSync };
inline constexpr size_t kNumFileOps = 3;

struct OpTotals {
  uint64_t ops = 0;
  uint64_t bytes = 0;
  int64_t ns = 0;  // wall inside the operation; only while timing is on
};

// Totals indexed [class][op].
using EnvTotals =
    std::array<std::array<OpTotals, kNumFileOps>, kNumFileClasses>;
EnvTotals operator-(const EnvTotals& a, const EnvTotals& b);
EnvTotals& operator+=(EnvTotals& a, const EnvTotals& b);

// Env decorator owned by the benchmark. Counts every read, write and sync
// by file class; while the span recorder is enabled it also times each
// read and write and records it as a leaf span under the engine call that
// issued it. Thread-safe: parallel recovery reads through it from pool
// threads. Truncate (preallocation) and directory operations pass through
// uncounted.
//
// Syncs are counted but not passed to the disk. On a shared virtual disk
// an fdatasync takes as long as the neighbours' I/O makes it, which swung
// the file-backed workloads' throughput by a quarter between runs; the
// engine's sync count stays visible as env.<class>.sync_ops. Crashes are
// simulated in-process, so no check depends on data reaching the device.
class BenchEnv : public mmdb::Env {
 public:
  BenchEnv(mmdb::Env* base, SpanRecorder* spans);

  EnvTotals Snapshot() const;
  // Adds one operation (public for the file wrappers).
  void Record(FileClass c, FileOp op, uint64_t bytes, int64_t start_ns);
  bool timing() const { return spans_->enabled(); }

  mmdb::StatusOr<std::unique_ptr<mmdb::WritableFile>> NewWritableFile(
      const std::string& path) override;
  mmdb::StatusOr<std::unique_ptr<mmdb::WritableFile>> NewAppendableFile(
      const std::string& path) override;
  mmdb::StatusOr<std::unique_ptr<mmdb::RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  mmdb::StatusOr<std::unique_ptr<mmdb::RandomWriteFile>> NewRandomWriteFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  mmdb::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  mmdb::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  mmdb::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  mmdb::Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  mmdb::Status ListDir(const std::string& path,
                       std::vector<std::string>* children) override {
    return base_->ListDir(path, children);
  }

 private:
  struct Counter {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<int64_t> ns{0};
  };

  mmdb::Env* const base_;
  SpanRecorder* const spans_;
  // Span names "env.<class>.<op>", interned at construction.
  std::array<std::array<uint32_t, kNumFileOps>, kNumFileClasses> names_{};
  std::array<std::array<Counter, kNumFileOps>, kNumFileClasses> counters_;
};

// Makes `to_dir` in `to` an exact copy of `from_dir` in `from`. Files
// already identical are left alone, so restoring a crash image rewrites
// only what a restart changed (the log, the audit journal), not the
// backup copies.
mmdb::Status MirrorDir(mmdb::Env* from, const std::string& from_dir,
                     mmdb::Env* to, const std::string& to_dir);

}  // namespace wallbench

#endif  // WALLBENCH_BENCH_ENV_H_
