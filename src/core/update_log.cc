#include "core/update_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "table/value_codec.h"

namespace leva {
namespace {

std::string SerializeRecord(const UpdateRecord& record) {
  BufferWriter w;
  w.PutString(record.table);
  w.PutU32(static_cast<uint32_t>(record.columns.size()));
  for (const std::string& c : record.columns) w.PutString(c);
  w.PutU64(record.rows.size());
  for (const std::vector<Value>& row : record.rows) {
    for (size_t c = 0; c < record.columns.size(); ++c) {
      EncodeValue(c < row.size() ? row[c] : Value::Null(), &w);
    }
  }
  return w.Release();
}

Status ParseRecord(std::string_view payload, UpdateRecord* out) {
  BufferReader r(payload);
  LEVA_RETURN_IF_ERROR(r.GetString(&out->table));
  // Counts are checked against the bytes left before anything is reserved,
  // so a crafted count cannot force a huge allocation. A column name costs
  // at least its 8-byte length, and a row at least 1 byte: 1 per cell (a
  // null), and a row of no cells is never written, since a table without
  // columns has no rows.
  uint32_t num_cols = 0;
  LEVA_RETURN_IF_ERROR(r.GetU32(&num_cols));
  if (num_cols > r.remaining() / 8) {
    return Status::InvalidArgument("update log: corrupt column count " +
                                   std::to_string(num_cols));
  }
  out->columns.clear();
  out->columns.reserve(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    std::string name;
    LEVA_RETURN_IF_ERROR(r.GetString(&name));
    out->columns.push_back(std::move(name));
  }
  uint64_t num_rows = 0;
  LEVA_RETURN_IF_ERROR(r.GetU64(&num_rows));
  if (num_rows > r.remaining() / std::max<uint64_t>(num_cols, 1)) {
    return Status::InvalidArgument("update log: corrupt row count " +
                                   std::to_string(num_rows));
  }
  out->rows.clear();
  out->rows.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    std::vector<Value> row(num_cols);
    for (uint32_t c = 0; c < num_cols; ++c) {
      LEVA_RETURN_IF_ERROR(DecodeValue(&r, &row[c]));
    }
    out->rows.push_back(std::move(row));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("update log: record payload has " +
                                   std::to_string(r.remaining()) +
                                   " trailing byte(s)");
  }
  return Status::OK();
}

// Scans `bytes` (a whole log file) from `from_offset`, appending parsed
// records to *out. Returns false (with *out partially filled up to the last
// valid record) when a torn/corrupt frame terminates the scan.
bool ScanRecords(std::string_view bytes, uint64_t from_offset,
                 UpdateLog::ReplayResult* out) {
  size_t pos = static_cast<size_t>(from_offset);
  out->end_offset = from_offset;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) return false;  // torn frame header
    uint32_t len, crc;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (bytes.size() - pos - 8 < len) return false;  // torn payload
    const std::string_view payload = bytes.substr(pos + 8, len);
    if (Crc32c(payload) != crc) return false;  // corrupt payload
    UpdateRecord record;
    if (!ParseRecord(payload, &record).ok()) return false;
    out->records.push_back(std::move(record));
    pos += 8 + len;
    out->end_offset = pos;
  }
  return true;
}

}  // namespace

constexpr char UpdateLog::kMagic[8];

Result<std::unique_ptr<UpdateLog>> UpdateLog::Open(const std::string& path,
                                                   Env* env) {
  std::unique_ptr<UpdateLog> log(new UpdateLog(path, env));
  if (env->FileExists(path)) {
    // Scan the existing file: validate the magic, count the acknowledged
    // prefix, and truncate any torn tail a crash left behind before new
    // records land after it (appending past a torn record would make them
    // unreachable to replay).
    LEVA_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
    if (bytes.size() < kHeaderSize) {
      // A crash during log creation can leave the magic itself torn (any
      // strict prefix, including an empty file). Nothing was ever
      // acknowledged, so rewrite it as a fresh empty log. Anything else
      // under 8 bytes is not ours.
      if (std::memcmp(bytes.data(), kMagic, bytes.size()) != 0) {
        return Status::InvalidArgument(
            "'" + path + "' is not a Leva update log (bad magic)");
      }
      LEVA_RETURN_IF_ERROR(AtomicWriteFile(
          env, path, std::string_view(kMagic, sizeof kMagic)));
      log->end_offset_ = kHeaderSize;
      LEVA_ASSIGN_OR_RETURN(log->file_, env->NewAppendableFile(path));
      return log;
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
      return Status::InvalidArgument("'" + path +
                                     "' is not a Leva update log (bad magic)");
    }
    ReplayResult scan;
    const bool clean = ScanRecords(bytes, kHeaderSize, &scan);
    log->end_offset_ = scan.end_offset;
    log->record_count_ = scan.records.size();
    if (!clean) {
      LEVA_RETURN_IF_ERROR(AtomicWriteFile(
          env, path, std::string_view(bytes.data(), scan.end_offset)));
    }
    LEVA_ASSIGN_OR_RETURN(log->file_, env->NewAppendableFile(path));
  } else {
    LEVA_ASSIGN_OR_RETURN(log->file_, env->NewAppendableFile(path));
    LEVA_RETURN_IF_ERROR(
        log->file_->Append(std::string_view(kMagic, sizeof kMagic)));
    LEVA_RETURN_IF_ERROR(log->file_->Sync());
    log->end_offset_ = kHeaderSize;
  }
  return log;
}

Status UpdateLog::Append(const UpdateRecord& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("update log is closed");
  }
  const std::string payload = SerializeRecord(record);
  BufferWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32c(payload));
  frame.PutBytes(payload.data(), payload.size());
  LEVA_RETURN_IF_ERROR(file_->Append(frame.data()));
  LEVA_RETURN_IF_ERROR(file_->Sync());
  end_offset_ += frame.size();
  ++record_count_;
  return Status::OK();
}

Status UpdateLog::Close() {
  if (file_ == nullptr) return Status::OK();
  std::unique_ptr<WritableFile> file = std::move(file_);
  return file->Close();
}

Result<UpdateLog::ReplayResult> UpdateLog::Read(const std::string& path,
                                                uint64_t from_offset,
                                                Env* env) {
  LEVA_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
  if (bytes.size() < kHeaderSize) {
    // Torn magic from a crash during creation (see Open): an empty log as
    // far as replay is concerned — no record was ever acknowledged.
    if (std::memcmp(bytes.data(), kMagic, bytes.size()) != 0) {
      return Status::InvalidArgument(
          "'" + path + "' is not a Leva update log (bad magic)");
    }
    ReplayResult out;
    out.end_offset = from_offset;
    out.torn_tail = true;
    return out;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a Leva update log (bad magic)");
  }
  if (from_offset < kHeaderSize || from_offset > bytes.size()) {
    return Status::InvalidArgument(
        "update log replay offset " + std::to_string(from_offset) +
        " out of range for '" + path + "' (" + std::to_string(bytes.size()) +
        " bytes)");
  }
  ReplayResult full;  // count from the top so record_count covers the file
  ScanRecords(bytes, kHeaderSize, &full);
  ReplayResult out;
  out.torn_tail = !ScanRecords(bytes, from_offset, &out);
  out.record_count = full.records.size();
  return out;
}

}  // namespace leva
