#include "bench_env.h"

#include <algorithm>

#include "stats.h"

namespace wallbench {

FileClass ClassifyPath(std::string_view path) {
  const size_t slash = path.rfind('/');
  const std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  auto starts = [&](std::string_view p) {
    return base.substr(0, p.size()) == p;
  };
  if (starts("wal.log")) return FileClass::kWal;
  if (starts("backup_") && base.size() >= 3 &&
      base.substr(base.size() - 3) == ".db") {
    return FileClass::kBackup;
  }
  if (starts("CHECKPOINT")) return FileClass::kMeta;
  if (base == "audit.log") return FileClass::kAudit;
  return FileClass::kOther;
}

std::string_view FileClassName(FileClass c) {
  switch (c) {
    case FileClass::kWal:
      return "wal";
    case FileClass::kBackup:
      return "backup";
    case FileClass::kMeta:
      return "meta";
    case FileClass::kAudit:
      return "audit";
    case FileClass::kOther:
      return "other";
  }
  return "other";
}

EnvTotals operator-(const EnvTotals& a, const EnvTotals& b) {
  EnvTotals d;
  for (size_t c = 0; c < kNumFileClasses; ++c) {
    for (size_t o = 0; o < kNumFileOps; ++o) {
      d[c][o].ops = a[c][o].ops - b[c][o].ops;
      d[c][o].bytes = a[c][o].bytes - b[c][o].bytes;
      d[c][o].ns = a[c][o].ns - b[c][o].ns;
    }
  }
  return d;
}

EnvTotals& operator+=(EnvTotals& a, const EnvTotals& b) {
  for (size_t c = 0; c < kNumFileClasses; ++c) {
    for (size_t o = 0; o < kNumFileOps; ++o) {
      a[c][o].ops += b[c][o].ops;
      a[c][o].bytes += b[c][o].bytes;
      a[c][o].ns += b[c][o].ns;
    }
  }
  return a;
}

namespace {

using mmdb::Status;
using mmdb::StatusOr;

class WritableWrapper : public mmdb::WritableFile {
 public:
  WritableWrapper(std::unique_ptr<mmdb::WritableFile> base, BenchEnv* env,
                  FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}
  Status Append(std::string_view data) override {
    const int64_t t0 = env_->timing() ? NowNs() : 0;
    Status st = base_->Append(data);
    env_->Record(class_, FileOp::kWrite, data.size(), t0);
    return st;
  }
  // Counted, not issued: see BenchEnv.
  Status Sync() override {
    env_->Record(class_, FileOp::kSync, 0, 0);
    return Status::OK();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<mmdb::WritableFile> base_;
  BenchEnv* env_;
  FileClass class_;
};

class RandomAccessWrapper : public mmdb::RandomAccessFile {
 public:
  RandomAccessWrapper(std::unique_ptr<mmdb::RandomAccessFile> base,
                      BenchEnv* env, FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}
  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    const int64_t t0 = env_->timing() ? NowNs() : 0;
    Status st = base_->Read(offset, n, out);
    env_->Record(class_, FileOp::kRead, out->size(), t0);
    return st;
  }
  StatusOr<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<mmdb::RandomAccessFile> base_;
  BenchEnv* env_;
  FileClass class_;
};

class RandomWriteWrapper : public mmdb::RandomWriteFile {
 public:
  RandomWriteWrapper(std::unique_ptr<mmdb::RandomWriteFile> base,
                     BenchEnv* env, FileClass c)
      : base_(std::move(base)), env_(env), class_(c) {}
  Status WriteAt(uint64_t offset, std::string_view data) override {
    const int64_t t0 = env_->timing() ? NowNs() : 0;
    Status st = base_->WriteAt(offset, data);
    env_->Record(class_, FileOp::kWrite, data.size(), t0);
    return st;
  }
  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    const int64_t t0 = env_->timing() ? NowNs() : 0;
    Status st = base_->Read(offset, n, out);
    env_->Record(class_, FileOp::kRead, out->size(), t0);
    return st;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  // Counted, not issued: see BenchEnv.
  Status Sync() override {
    env_->Record(class_, FileOp::kSync, 0, 0);
    return Status::OK();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<mmdb::RandomWriteFile> base_;
  BenchEnv* env_;
  FileClass class_;
};

}  // namespace

BenchEnv::BenchEnv(mmdb::Env* base, SpanRecorder* spans)
    : base_(base), spans_(spans) {
  static constexpr std::string_view kOps[kNumFileOps] = {"read", "write",
                                                         "sync"};
  for (size_t c = 0; c < kNumFileClasses; ++c) {
    for (size_t o = 0; o < kNumFileOps; ++o) {
      names_[c][o] = spans_->Intern(
          "env." + std::string(FileClassName(static_cast<FileClass>(c))) +
          "." + std::string(kOps[o]));
    }
  }
}

void BenchEnv::Record(FileClass c, FileOp op, uint64_t bytes,
                      int64_t start_ns) {
  Counter& k = counters_[static_cast<size_t>(c)][static_cast<size_t>(op)];
  k.ops.fetch_add(1, std::memory_order_relaxed);
  k.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (start_ns != 0) {
    const int64_t end_ns = NowNs();
    k.ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
    spans_->Leaf(names_[static_cast<size_t>(c)][static_cast<size_t>(op)],
                 start_ns, end_ns);
  }
}

EnvTotals BenchEnv::Snapshot() const {
  EnvTotals t;
  for (size_t c = 0; c < kNumFileClasses; ++c) {
    for (size_t o = 0; o < kNumFileOps; ++o) {
      t[c][o].ops = counters_[c][o].ops.load(std::memory_order_relaxed);
      t[c][o].bytes = counters_[c][o].bytes.load(std::memory_order_relaxed);
      t[c][o].ns = counters_[c][o].ns.load(std::memory_order_relaxed);
    }
  }
  return t;
}

StatusOr<std::unique_ptr<mmdb::WritableFile>> BenchEnv::NewWritableFile(
    const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(auto f, base_->NewWritableFile(path));
  return {std::make_unique<WritableWrapper>(std::move(f), this,
                                            ClassifyPath(path))};
}

StatusOr<std::unique_ptr<mmdb::WritableFile>> BenchEnv::NewAppendableFile(
    const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(auto f, base_->NewAppendableFile(path));
  return {std::make_unique<WritableWrapper>(std::move(f), this,
                                            ClassifyPath(path))};
}

StatusOr<std::unique_ptr<mmdb::RandomAccessFile>>
BenchEnv::NewRandomAccessFile(const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(auto f, base_->NewRandomAccessFile(path));
  return {std::make_unique<RandomAccessWrapper>(std::move(f), this,
                                                ClassifyPath(path))};
}

StatusOr<std::unique_ptr<mmdb::RandomWriteFile>> BenchEnv::NewRandomWriteFile(
    const std::string& path) {
  MMDB_ASSIGN_OR_RETURN(auto f, base_->NewRandomWriteFile(path));
  return {std::make_unique<RandomWriteWrapper>(std::move(f), this,
                                               ClassifyPath(path))};
}

namespace {
// True when `a` in env `ea` and `b` in env `eb` hold the same bytes.
bool SameContents(mmdb::Env* ea, const std::string& a, mmdb::Env* eb,
                  const std::string& b) {
  mmdb::StatusOr<uint64_t> na = ea->FileSize(a);
  mmdb::StatusOr<uint64_t> nb = eb->FileSize(b);
  if (!na.ok() || !nb.ok() || *na != *nb) return false;
  auto fa = ea->NewRandomAccessFile(a);
  auto fb = eb->NewRandomAccessFile(b);
  if (!fa.ok() || !fb.ok()) return false;
  constexpr size_t kChunk = 1 << 20;
  std::string ba, bb;
  for (uint64_t off = 0; off < *na; off += kChunk) {
    if (!(*fa)->Read(off, kChunk, &ba).ok() ||
        !(*fb)->Read(off, kChunk, &bb).ok() || ba != bb) {
      return false;
    }
  }
  return true;
}
}  // namespace

mmdb::Status MirrorDir(mmdb::Env* from, const std::string& from_dir,
                       mmdb::Env* to, const std::string& to_dir) {
  MMDB_RETURN_IF_ERROR(to->CreateDirIfMissing(to_dir));
  std::vector<std::string> wanted, present;
  MMDB_RETURN_IF_ERROR(from->ListDir(from_dir, &wanted));
  MMDB_RETURN_IF_ERROR(to->ListDir(to_dir, &present));
  for (const std::string& name : present) {
    if (std::find(wanted.begin(), wanted.end(), name) == wanted.end()) {
      MMDB_RETURN_IF_ERROR(to->DeleteFile(to_dir + "/" + name));
    }
  }
  constexpr size_t kChunk = 1 << 20;
  std::string buf;
  for (const std::string& name : wanted) {
    const std::string src = from_dir + "/" + name;
    const std::string dst = to_dir + "/" + name;
    if (SameContents(from, src, to, dst)) continue;
    MMDB_ASSIGN_OR_RETURN(auto in, from->NewRandomAccessFile(src));
    MMDB_ASSIGN_OR_RETURN(auto out, to->NewWritableFile(dst));
    for (uint64_t off = 0;; off += buf.size()) {
      MMDB_RETURN_IF_ERROR(in->Read(off, kChunk, &buf));
      if (buf.empty()) break;
      MMDB_RETURN_IF_ERROR(out->Append(buf));
    }
    MMDB_RETURN_IF_ERROR(out->Close());
  }
  return mmdb::Status::OK();
}

}  // namespace wallbench
