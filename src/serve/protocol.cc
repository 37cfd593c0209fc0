#include "serve/protocol.h"

#include <cstring>

#include "common/logging.h"
#include "common/status.h"
#include "table/value_codec.h"

namespace leva::serve {

namespace {

void PutResponseHeader(Opcode opcode, uint64_t request_id,
                       const Status& status, BufferWriter* w) {
  w->PutU8(static_cast<uint8_t>(opcode));
  w->PutU64(request_id);
  w->PutU8(static_cast<uint8_t>(status.code()));
  w->PutString(status.ok() ? std::string_view{} : status.message());
}

// The OK FEATURIZE payload: the response header, u32 rows, u32 width, then
// the features' bytes.
void PutFeaturizeResponse(uint64_t request_id, size_t rows, size_t width,
                          const double* features, BufferWriter* w) {
  PutResponseHeader(Opcode::kFeaturize, request_id, Status::OK(), w);
  w->PutU32(static_cast<uint32_t>(rows));
  w->PutU32(static_cast<uint32_t>(width));
  w->PutBytes(features, rows * width * sizeof(double));
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  LEVA_CHECK(payload.size() <= kMaxFramePayload,
             "frame payload exceeds kMaxFramePayload");
  BufferWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32c(payload));
  w.PutBytes(payload.data(), payload.size());
  return w.Release();
}

Result<FrameDecode> DecodeFrame(std::string_view buffer) {
  FrameDecode out;
  if (buffer.size() < kFrameHeaderSize) return out;
  uint32_t len, crc;
  std::memcpy(&len, buffer.data(), sizeof len);
  std::memcpy(&crc, buffer.data() + sizeof len, sizeof crc);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(len) + " exceeds limit " +
        std::to_string(kMaxFramePayload));
  }
  if (buffer.size() < kFrameHeaderSize + len) return out;
  const std::string_view payload = buffer.substr(kFrameHeaderSize, len);
  if (Crc32c(payload) != crc) {
    return Status::InvalidArgument("frame checksum mismatch over " +
                                   std::to_string(len) + " payload byte(s)");
  }
  out.complete = true;
  out.payload = payload;
  out.consumed = kFrameHeaderSize + len;
  return out;
}

Status DecodeRequestHeader(BufferReader* reader, RequestHeader* header) {
  uint8_t op;
  LEVA_RETURN_IF_ERROR(reader->GetU8(&op));
  LEVA_RETURN_IF_ERROR(reader->GetU64(&header->request_id));
  header->opcode = static_cast<Opcode>(op);
  return Status::OK();
}

std::string EncodeFeaturizeRequest(const FeaturizeRequest& request) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(Opcode::kFeaturize));
  w.PutU64(request.request_id);
  w.PutBool(request.rows_in_graph);
  w.PutString(request.rows.name());
  w.PutString(request.target_column);
  EncodeTable(request.rows, &w);
  return w.Release();
}

Status DecodeFeaturizeBody(BufferReader* reader, FeaturizeRequest* request) {
  LEVA_RETURN_IF_ERROR(reader->GetBool(&request->rows_in_graph));
  std::string table_name;
  LEVA_RETURN_IF_ERROR(reader->GetString(&table_name));
  LEVA_RETURN_IF_ERROR(reader->GetString(&request->target_column));
  LEVA_RETURN_IF_ERROR(DecodeTable(reader, &request->rows));
  request->rows.set_name(std::move(table_name));
  return Status::OK();
}

std::string EncodeReloadRequest(const ReloadRequest& request) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(Opcode::kReload));
  w.PutU64(request.request_id);
  w.PutString(request.path);
  w.PutBool(request.use_mmap);
  w.PutBool(request.verify_pages);
  w.PutBool(request.require_same_tier);
  return w.Release();
}

Status DecodeReloadBody(BufferReader* reader, ReloadRequest* request) {
  LEVA_RETURN_IF_ERROR(reader->GetString(&request->path));
  LEVA_RETURN_IF_ERROR(reader->GetBool(&request->use_mmap));
  LEVA_RETURN_IF_ERROR(reader->GetBool(&request->verify_pages));
  LEVA_RETURN_IF_ERROR(reader->GetBool(&request->require_same_tier));
  return Status::OK();
}

std::string EncodeBodylessRequest(Opcode opcode, uint64_t request_id) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(opcode));
  w.PutU64(request_id);
  return w.Release();
}

std::string EncodeErrorResponse(Opcode opcode, uint64_t request_id,
                                const Status& status) {
  BufferWriter w;
  PutResponseHeader(opcode, request_id, status, &w);
  return w.Release();
}

std::string EncodeOkResponse(Opcode opcode, uint64_t request_id) {
  BufferWriter w;
  PutResponseHeader(opcode, request_id, Status::OK(), &w);
  return w.Release();
}

std::string EncodeFeaturizeResponse(uint64_t request_id, size_t rows,
                                    size_t width, const double* features) {
  BufferWriter w;
  PutFeaturizeResponse(request_id, rows, width, features, &w);
  return w.Release();
}

size_t FeaturizeResponseSize(size_t rows, size_t width) {
  // opcode, request id, status code, empty message (u64 length), u32 rows,
  // u32 width, then the features.
  constexpr size_t kHeader = 1 + 8 + 1 + 8 + 4 + 4;
  return kHeader + rows * width * sizeof(double);
}

std::string EncodeFeaturizeResponseFrame(uint64_t request_id, size_t rows,
                                         size_t width,
                                         const double* features) {
  const size_t payload_size = FeaturizeResponseSize(rows, width);
  LEVA_CHECK(payload_size <= kMaxFramePayload,
             "frame payload exceeds kMaxFramePayload");
  BufferWriter w;
  w.Reserve(kFrameHeaderSize + payload_size);
  w.PutU32(static_cast<uint32_t>(payload_size));
  w.PutU32(0);  // the CRC, filled in once the payload is written
  PutFeaturizeResponse(request_id, rows, width, features, &w);
  std::string frame = w.Release();
  const uint32_t crc = Crc32c(frame.data() + kFrameHeaderSize, payload_size);
  std::memcpy(frame.data() + sizeof(uint32_t), &crc, sizeof crc);
  return frame;
}

std::string EncodeStatsResponse(
    uint64_t request_id,
    const std::vector<std::pair<std::string, double>>& fields) {
  BufferWriter w;
  PutResponseHeader(Opcode::kStats, request_id, Status::OK(), &w);
  w.PutU32(static_cast<uint32_t>(fields.size()));
  for (const auto& [name, value] : fields) {
    w.PutString(name);
    w.PutDouble(value);
  }
  return w.Release();
}

Status DecodeResponse(std::string_view payload, DecodedResponse* response) {
  BufferReader r(payload);
  uint8_t op, code;
  LEVA_RETURN_IF_ERROR(r.GetU8(&op));
  LEVA_RETURN_IF_ERROR(r.GetU64(&response->request_id));
  LEVA_RETURN_IF_ERROR(r.GetU8(&code));
  std::string message;
  LEVA_RETURN_IF_ERROR(r.GetString(&message));
  response->opcode = static_cast<Opcode>(op);
  if (code != 0) {
    response->status = Status(static_cast<StatusCode>(code), std::move(message));
    return Status::OK();
  }
  response->status = Status::OK();
  switch (response->opcode) {
    case Opcode::kFeaturize: {
      uint32_t rows = 0;
      uint32_t width = 0;
      LEVA_RETURN_IF_ERROR(r.GetU32(&rows));
      LEVA_RETURN_IF_ERROR(r.GetU32(&width));
      std::string_view raw;
      LEVA_RETURN_IF_ERROR(
          r.GetBytes(size_t{rows} * width * sizeof(double), &raw));
      response->rows = rows;
      response->width = width;
      response->features.resize(size_t{rows} * width);
      std::memcpy(response->features.data(), raw.data(), raw.size());
      break;
    }
    case Opcode::kStats: {
      uint32_t count = 0;
      LEVA_RETURN_IF_ERROR(r.GetU32(&count));
      response->stats.clear();
      response->stats.reserve(std::min<size_t>(count, 1024));
      for (uint32_t i = 0; i < count; ++i) {
        std::string name;
        double value;
        LEVA_RETURN_IF_ERROR(r.GetString(&name));
        LEVA_RETURN_IF_ERROR(r.GetDouble(&value));
        response->stats.emplace_back(std::move(name), value);
      }
      break;
    }
    default:
      break;  // bodyless
  }
  return Status::OK();
}

void EncodeTable(const Table& table, BufferWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(table.NumColumns()));
  for (const Column& c : table.columns()) {
    writer->PutString(c.name);
    writer->PutU8(static_cast<uint8_t>(c.type));
  }
  writer->PutU32(static_cast<uint32_t>(table.NumRows()));
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      EncodeValue(table.at(r, c), writer);
    }
  }
}

Status DecodeTable(BufferReader* reader, Table* table) {
  uint32_t num_columns = 0;
  LEVA_RETURN_IF_ERROR(reader->GetU32(&num_columns));
  std::vector<Column> columns;
  // Every column header costs at least 9 bytes on the wire, so a corrupt
  // count cannot force a huge reservation past this sanity check.
  if (size_t{num_columns} * 9 > reader->remaining()) {
    return Status::InvalidArgument("corrupt column count " +
                                   std::to_string(num_columns));
  }
  columns.resize(num_columns);
  for (Column& c : columns) {
    LEVA_RETURN_IF_ERROR(reader->GetString(&c.name));
    uint8_t type;
    LEVA_RETURN_IF_ERROR(reader->GetU8(&type));
    if (type > static_cast<uint8_t>(DataType::kDatetime)) {
      return Status::InvalidArgument("corrupt column type " +
                                     std::to_string(type));
    }
    c.type = static_cast<DataType>(type);
  }
  uint32_t num_rows = 0;
  LEVA_RETURN_IF_ERROR(reader->GetU32(&num_rows));
  if (size_t{num_rows} * num_columns > reader->remaining()) {
    return Status::InvalidArgument("corrupt row count " +
                                   std::to_string(num_rows));
  }
  for (Column& c : columns) c.values.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    for (Column& c : columns) {
      Value v;
      LEVA_RETURN_IF_ERROR(DecodeValue(reader, &v));
      c.values.push_back(std::move(v));
    }
  }
  Table out(table->name());
  for (Column& c : columns) {
    LEVA_RETURN_IF_ERROR(out.AddColumn(std::move(c)));
  }
  *table = std::move(out);
  return Status::OK();
}

}  // namespace leva::serve
