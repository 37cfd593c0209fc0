#ifndef LEVA_SERVE_PROTOCOL_H_
#define LEVA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "table/table.h"

namespace leva::serve {

// ---------------------------------------------------------------------------
// Wire format
//
// Every message — request or response, either direction — is one frame:
//
//     u32 payload_length | u32 crc32c(payload) | payload bytes
//
// (little-endian, the same framing the update log uses). The payload begins
// with a u8 opcode and a u64 request id; the id is chosen by the client and
// echoed verbatim in the response, so a connection may pipeline requests and
// match responses arriving out of order (batching completes FEATURIZE
// requests when their batch executes, not in arrival order).
//
// Response payloads carry, after the echoed opcode and id, a u8 status code
// (leva::StatusCode; 0 = OK) and a length-prefixed message (empty on OK),
// then the opcode-specific body. A server that cannot trust the stream
// (oversized length, CRC mismatch — the frame boundary itself is gone) sends
// one final error response with opcode kInvalid / id 0 and closes; a
// well-framed but unintelligible payload (unknown opcode, truncated body)
// gets an error response and the connection stays usable.
// ---------------------------------------------------------------------------

/// Hard ceiling on a frame payload; a length prefix beyond it is treated as
/// stream corruption, not an allocation request (bounded memory).
constexpr uint32_t kMaxFramePayload = 32u << 20;
constexpr size_t kFrameHeaderSize = 8;

enum class Opcode : uint8_t {
  kInvalid = 0,  ///< response-only: stream-level error, no request to echo
  kPing = 1,
  kFeaturize = 2,
  kStats = 3,
  kReload = 4,
  kDrain = 5,
};

/// Wraps `payload` in a length + CRC32C frame. `payload` must be at most
/// kMaxFramePayload bytes (checked): no peer would accept a longer frame.
std::string EncodeFrame(std::string_view payload);

/// Outcome of scanning a receive buffer for one complete frame.
struct FrameDecode {
  bool complete = false;     ///< false: keep reading, payload/consumed unset
  std::string_view payload;  ///< view into the input buffer
  size_t consumed = 0;       ///< bytes (header + payload) to drop from buffer
};

/// Tries to decode one frame from the front of `buffer`. Returns an error —
/// the connection is unrecoverable — when the length prefix exceeds
/// kMaxFramePayload or the payload fails its checksum.
Result<FrameDecode> DecodeFrame(std::string_view buffer);

// --- requests --------------------------------------------------------------

struct RequestHeader {
  Opcode opcode = Opcode::kInvalid;
  uint64_t request_id = 0;
};

/// Reads opcode + request id. Unknown opcode values are returned as-is (the
/// server answers them with an error naming the byte); only truncation fails.
Status DecodeRequestHeader(BufferReader* reader, RequestHeader* header);

/// FEATURIZE: featurize `rows` against the served model. `target_column`
/// names a column of `rows` excluded from the features (its values are
/// ignored); when empty the server featurizes every column. `rows_in_graph`
/// selects the fit-time row-node path (row i of `rows` must be row i of the
/// fitted base table); such requests are never coalesced with others because
/// row indices are table-positional.
struct FeaturizeRequest {
  uint64_t request_id = 0;
  bool rows_in_graph = false;
  std::string target_column;
  Table rows;
};

std::string EncodeFeaturizeRequest(const FeaturizeRequest& request);
/// Decodes the body (after the header) into `request` (request_id is not
/// touched — the caller has it from the header).
Status DecodeFeaturizeBody(BufferReader* reader, FeaturizeRequest* request);

/// RELOAD: hot-swap the served model to the snapshot at `path` (a path on
/// the server's filesystem), with the same knobs leva_cli exposes.
struct ReloadRequest {
  uint64_t request_id = 0;
  std::string path;
  bool use_mmap = false;
  bool verify_pages = true;
  bool require_same_tier = true;
};

std::string EncodeReloadRequest(const ReloadRequest& request);
Status DecodeReloadBody(BufferReader* reader, ReloadRequest* request);

/// PING / STATS / DRAIN have no body.
std::string EncodeBodylessRequest(Opcode opcode, uint64_t request_id);

// --- responses -------------------------------------------------------------

std::string EncodeErrorResponse(Opcode opcode, uint64_t request_id,
                                const Status& status);
/// OK response for PING / RELOAD / DRAIN (no body).
std::string EncodeOkResponse(Opcode opcode, uint64_t request_id);
/// OK response for FEATURIZE: u32 rows, u32 width, then rows*width doubles
/// (row-major, exact bit patterns — the transport preserves bit-identity
/// with the offline Featurize).
std::string EncodeFeaturizeResponse(uint64_t request_id, size_t rows,
                                    size_t width, const double* features);
/// Payload size in bytes of the EncodeFeaturizeResponse for `rows` x `width`
/// features — what the server checks against kMaxFramePayload before
/// encoding one.
size_t FeaturizeResponseSize(size_t rows, size_t width);
/// The finished wire frame of that response, byte-identical to
/// EncodeFrame(EncodeFeaturizeResponse(...)), built in one exact-size buffer
/// with a single copy of the features. FeaturizeResponseSize(rows, width)
/// must be at most kMaxFramePayload (checked).
std::string EncodeFeaturizeResponseFrame(uint64_t request_id, size_t rows,
                                         size_t width,
                                         const double* features);
/// OK response for STATS: u32 count of (string name, double value) fields.
std::string EncodeStatsResponse(
    uint64_t request_id,
    const std::vector<std::pair<std::string, double>>& fields);

/// A fully decoded response; which tail fields are meaningful depends on the
/// opcode. `status` carries the server-side error when not OK.
struct DecodedResponse {
  Opcode opcode = Opcode::kInvalid;
  uint64_t request_id = 0;
  Status status;
  // kFeaturize:
  size_t rows = 0;
  size_t width = 0;
  std::vector<double> features;  ///< row-major rows x width
  // kStats:
  std::vector<std::pair<std::string, double>> stats;
};

/// Decodes a response payload. Fails only on a malformed payload; a
/// well-formed error response decodes OK with `response->status` set.
Status DecodeResponse(std::string_view payload, DecodedResponse* response);

// --- table serialization ---------------------------------------------------

/// Schema + row-major cells: u32 columns, per column (name, u8 type);
/// u32 rows, then per cell a u8 tag (0 null / 1 int / 2 double / 3 string)
/// and the tagged payload. Datetimes travel as ints with a kDatetime column
/// type, exactly as they live in Table.
void EncodeTable(const Table& table, BufferWriter* writer);
Status DecodeTable(BufferReader* reader, Table* table);

}  // namespace leva::serve

#endif  // LEVA_SERVE_PROTOCOL_H_
