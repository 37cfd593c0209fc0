#ifndef LEVA_TABLE_VALUE_CODEC_H_
#define LEVA_TABLE_VALUE_CODEC_H_

#include "common/io.h"
#include "common/status.h"
#include "table/value.h"

namespace leva {

/// The binary cell codec of the update log and the wire protocol: a u8 tag,
/// then the payload — 0 null (no payload), 1 int (u64 bits), 2 double,
/// 3 string (u64 length + bytes). The tags are stable: a log outlives the
/// process that wrote it. The smallest cell, a null, is 1 byte.
void EncodeValue(const Value& v, BufferWriter* w);

/// Decodes one cell written by EncodeValue; InvalidArgument on a truncated
/// buffer or an unknown tag.
Status DecodeValue(BufferReader* r, Value* v);

}  // namespace leva

#endif  // LEVA_TABLE_VALUE_CODEC_H_
