#include "codec/codec.hpp"

#include <cstring>
#include <stdexcept>

#include "codec/xor_delta.hpp"

namespace qnn::codec {

std::string codec_name(CodecId id) {
  switch (id) {
    case CodecId::kRaw:
      return "raw";
    case CodecId::kRle:
      return "rle";
    case CodecId::kLz:
      return "lz";
    case CodecId::kDeltaLz:
      return "delta+lz";
    case CodecId::kDeltaRle:
      return "delta+rle";
  }
  return "unknown";
}

CodecId codec_from_name(const std::string& name) {
  for (CodecId id : kAllCodecs) {
    if (codec_name(id) == name) {
      return id;
    }
  }
  throw std::invalid_argument("codec_from_name: unknown codec '" + name + "'");
}

Bytes encode(CodecId id, ByteSpan raw) {
  switch (id) {
    case CodecId::kRaw:
      return Bytes(raw.begin(), raw.end());
    case CodecId::kRle:
      return rle_encode(raw);
    case CodecId::kLz:
      return lz_encode(raw);
    case CodecId::kDeltaLz: {
      const Bytes delta = xor_delta64(raw);
      return lz_encode(delta);
    }
    case CodecId::kDeltaRle: {
      const Bytes delta = xor_delta64(raw);
      return rle_encode(delta);
    }
  }
  throw std::invalid_argument("encode: unknown codec id");
}

Bytes decode(CodecId id, ByteSpan encoded, std::size_t raw_len) {
  switch (id) {
    case CodecId::kRaw: {
      if (encoded.size() != raw_len) {
        throw std::runtime_error("decode(raw): length mismatch");
      }
      return Bytes(encoded.begin(), encoded.end());
    }
    case CodecId::kRle:
      return rle_decode(encoded, raw_len);
    case CodecId::kLz:
      return lz_decode(encoded, raw_len);
    case CodecId::kDeltaLz:
      return xor_undelta64(lz_decode(encoded, raw_len));
    case CodecId::kDeltaRle:
      return xor_undelta64(rle_decode(encoded, raw_len));
  }
  throw std::invalid_argument("decode: unknown codec id");
}

void decode_into(CodecId id, ByteSpan encoded, MutableByteSpan out) {
  switch (id) {
    case CodecId::kRaw:
      if (encoded.size() != out.size()) {
        throw std::runtime_error("decode(raw): length mismatch");
      }
      if (!out.empty()) {
        std::memcpy(out.data(), encoded.data(), out.size());
      }
      return;
    case CodecId::kLz:
      lz_decode_into(encoded, out);
      return;
    case CodecId::kDeltaLz:
      lz_decode_into(encoded, out);
      xor_undelta64_inplace(out);
      return;
    case CodecId::kRle:
    case CodecId::kDeltaRle: {
      const Bytes raw = decode(id, encoded, out.size());
      if (!raw.empty()) {
        std::memcpy(out.data(), raw.data(), raw.size());
      }
      return;
    }
  }
  throw std::invalid_argument("decode: unknown codec id");
}

}  // namespace qnn::codec
