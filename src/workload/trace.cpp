#include "workload/trace.hpp"

#include <unistd.h>

#include <cstring>

namespace bdsm::workload {

namespace {

// Explicit little-endian (de)serialization keeps trace bytes identical
// across hosts regardless of native endianness.

void PutU32(FILE* f, uint32_t x, bool* ok) {
  unsigned char b[4] = {static_cast<unsigned char>(x),
                        static_cast<unsigned char>(x >> 8),
                        static_cast<unsigned char>(x >> 16),
                        static_cast<unsigned char>(x >> 24)};
  if (fwrite(b, 1, 4, f) != 4) *ok = false;
}

void PutU64(FILE* f, uint64_t x, bool* ok) {
  PutU32(f, static_cast<uint32_t>(x), ok);
  PutU32(f, static_cast<uint32_t>(x >> 32), ok);
}

void PutU8(FILE* f, uint8_t x, bool* ok) {
  if (fwrite(&x, 1, 1, f) != 1) *ok = false;
}

bool GetU32(FILE* f, uint32_t* x) {
  unsigned char b[4];
  if (fread(b, 1, 4, f) != 4) return false;
  *x = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

bool GetU64(FILE* f, uint64_t* x) {
  uint32_t lo, hi;
  if (!GetU32(f, &lo) || !GetU32(f, &hi)) return false;
  *x = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool GetU8(FILE* f, uint8_t* x) { return fread(x, 1, 1, f) == 1; }

constexpr long kNumBatchesOffset = 24;

}  // namespace

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta) {
  f_ = fopen(path.c_str(), "wb");
  if (f_ == nullptr) return;
  ok_ = true;
  if (fwrite(kTraceMagic, 1, sizeof(kTraceMagic), f_) !=
      sizeof(kTraceMagic)) {
    ok_ = false;
  }
  PutU32(f_, kTraceVersion, &ok_);
  PutU32(f_, 0, &ok_);  // flags
  PutU64(f_, meta.seed, &ok_);
  PutU64(f_, 0, &ok_);  // num_batches placeholder, patched in Close()
  PutU32(f_, static_cast<uint32_t>(meta.scenario.size()), &ok_);
  if (!meta.scenario.empty() &&
      fwrite(meta.scenario.data(), 1, meta.scenario.size(), f_) !=
          meta.scenario.size()) {
    ok_ = false;
  }
}

TraceWriter::~TraceWriter() { Close(); }

void TraceWriter::Append(const UpdateBatch& batch) {
  if (f_ == nullptr || !ok_) return;
  PutU64(f_, batch.size(), &ok_);
  for (const UpdateOp& op : batch) {
    PutU8(f_, op.is_insert ? 1 : 0, &ok_);
    PutU32(f_, op.u, &ok_);
    PutU32(f_, op.v, &ok_);
    PutU32(f_, op.elabel, &ok_);
  }
  ++num_batches_;
}

bool TraceWriter::Flush(bool sync) {
  if (f_ == nullptr || !ok_) return false;
  if (fflush(f_) != 0) ok_ = false;
  if (sync && ok_ && fsync(fileno(f_)) != 0) ok_ = false;
  return ok_;
}

void TraceWriter::Close(bool sync) {
  if (f_ == nullptr) return;
  if (ok_ && fseek(f_, kNumBatchesOffset, SEEK_SET) == 0) {
    PutU64(f_, num_batches_, &ok_);
  } else {
    ok_ = false;
  }
  if (sync && ok_) {
    if (fflush(f_) != 0 || fsync(fileno(f_)) != 0) ok_ = false;
  }
  if (fclose(f_) != 0) ok_ = false;
  f_ = nullptr;
}

TraceReader::TraceReader(const std::string& path, Options options)
    : options_(options) {
  f_ = fopen(path.c_str(), "rb");
  if (f_ == nullptr) return;
  if (fseek(f_, 0, SEEK_END) != 0) return;
  long size = ftell(f_);
  if (size < 0 || fseek(f_, 0, SEEK_SET) != 0) return;
  file_size_ = static_cast<uint64_t>(size);
  char magic[8];
  uint32_t version = 0, flags = 0, name_len = 0;
  if (fread(magic, 1, sizeof(magic), f_) != sizeof(magic) ||
      std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0 ||
      !GetU32(f_, &version) || version != kTraceVersion ||
      !GetU32(f_, &flags) || !GetU64(f_, &meta_.seed) ||
      !GetU64(f_, &num_batches_) || !GetU32(f_, &name_len)) {
    return;
  }
  // Counts come from the file; sanity-check them against the bytes
  // actually present before anyone reserve()s on them, so a corrupt or
  // hostile header yields !ok() instead of std::bad_alloc.  In recover
  // mode the batch count is advisory anyway (a crashed writer leaves
  // the placeholder 0 or, truncated mid-file, a count the bytes cannot
  // honor), so only the name length gates here.
  if (name_len > RemainingBytes() ||
      (!options_.recover_truncated &&
       num_batches_ > (RemainingBytes() - name_len) / 8)) {
    return;
  }
  meta_.scenario.resize(name_len);
  if (name_len > 0 &&
      fread(meta_.scenario.data(), 1, name_len, f_) != name_len) {
    meta_.scenario.clear();
    return;
  }
  ok_ = true;
}

uint64_t TraceReader::RemainingBytes() const {
  long pos = ftell(f_);
  if (pos < 0 || static_cast<uint64_t>(pos) > file_size_) return 0;
  return file_size_ - static_cast<uint64_t>(pos);
}

TraceReader::~TraceReader() {
  if (f_ != nullptr) fclose(f_);
}

std::optional<UpdateBatch> TraceReader::Next() {
  if (!ok_ || truncated_) return std::nullopt;
  if (options_.recover_truncated) {
    // Recover mode walks the bytes, not the header: a crashed writer
    // never patched the count.  A clean stop is ending exactly on a
    // batch boundary with at least as many batches as the header
    // promised (0 = placeholder, promises nothing).
    if (RemainingBytes() == 0) {
      truncated_ = num_batches_ != 0 && read_batches_ < num_batches_;
      return std::nullopt;
    }
  } else if (read_batches_ >= num_batches_) {
    return std::nullopt;
  }
  // A short trailing record is corruption in strict mode (the header
  // promised it whole) but expected wreckage in recover mode — stop at
  // the last good batch and report truncated() instead.
  auto torn = [this]() -> std::optional<UpdateBatch> {
    if (options_.recover_truncated) {
      truncated_ = true;
    } else {
      ok_ = false;
    }
    return std::nullopt;
  };
  uint64_t num_ops = 0;
  if (!GetU64(f_, &num_ops)) return torn();
  // 13 bytes per op (see trace.hpp); an op count the remaining file
  // cannot hold marks the trace corrupt (or torn) before reserve() can
  // blow up.
  if (num_ops > RemainingBytes() / 13) return torn();
  UpdateBatch batch;
  batch.reserve(num_ops);
  for (uint64_t i = 0; i < num_ops; ++i) {
    uint8_t ins = 0;
    uint32_t u = 0, v = 0, el = 0;
    // The writer emits flag 0 or 1 only; any other byte is a damaged
    // record, rejected like a short one.
    if (!GetU8(f_, &ins) || !GetU32(f_, &u) || !GetU32(f_, &v) ||
        !GetU32(f_, &el) || ins > 1) {
      return torn();
    }
    batch.push_back(UpdateOp{ins == 1, u, v, el});
  }
  ++read_batches_;
  return batch;
}

bool WriteTrace(const std::string& path, const TraceMeta& meta,
                const std::vector<UpdateBatch>& stream) {
  TraceWriter w(path, meta);
  for (const UpdateBatch& b : stream) w.Append(b);
  w.Close();
  return w.ok();
}

std::optional<std::vector<UpdateBatch>> ReadTrace(const std::string& path,
                                                  TraceMeta* meta) {
  TraceReader r(path);
  if (!r.ok()) return std::nullopt;
  std::vector<UpdateBatch> stream;
  stream.reserve(r.num_batches());
  while (auto b = r.Next()) stream.push_back(std::move(*b));
  if (!r.ok() || stream.size() != r.num_batches()) return std::nullopt;
  if (meta != nullptr) *meta = r.meta();
  return stream;
}

}  // namespace bdsm::workload
