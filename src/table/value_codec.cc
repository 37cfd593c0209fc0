#include "table/value_codec.h"

#include <string>
#include <utility>

namespace leva {
namespace {

enum : uint8_t {
  kTagNull = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagString = 3,
};

}  // namespace

void EncodeValue(const Value& v, BufferWriter* w) {
  if (v.is_null()) {
    w->PutU8(kTagNull);
  } else if (v.is_int()) {
    w->PutU8(kTagInt);
    w->PutU64(static_cast<uint64_t>(v.as_int()));
  } else if (v.is_double()) {
    w->PutU8(kTagDouble);
    w->PutDouble(v.as_double());
  } else {
    w->PutU8(kTagString);
    w->PutString(v.as_string());
  }
}

Status DecodeValue(BufferReader* r, Value* v) {
  uint8_t tag = 0;
  LEVA_RETURN_IF_ERROR(r->GetU8(&tag));
  switch (tag) {
    case kTagNull:
      *v = Value::Null();
      return Status::OK();
    case kTagInt: {
      uint64_t bits = 0;
      LEVA_RETURN_IF_ERROR(r->GetU64(&bits));
      *v = Value(static_cast<int64_t>(bits));
      return Status::OK();
    }
    case kTagDouble: {
      double d = 0;
      LEVA_RETURN_IF_ERROR(r->GetDouble(&d));
      *v = Value(d);
      return Status::OK();
    }
    case kTagString: {
      std::string s;
      LEVA_RETURN_IF_ERROR(r->GetString(&s));
      *v = Value(std::move(s));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("corrupt cell tag " + std::to_string(tag));
  }
}

}  // namespace leva
