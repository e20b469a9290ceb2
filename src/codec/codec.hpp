// Compression codecs for checkpoint sections.
//
// Checkpoint payloads fall into two regimes:
//   * optimiser-dominated data (parameters, Adam moments, loss history):
//     doubles that move slowly between checkpoints — XOR-delta against the
//     parent checkpoint turns them into sparse, highly compressible byte
//     streams (long zero runs), which Rle/Lz then collapse;
//   * statevector amplitudes: near-incompressible high-entropy doubles —
//     codecs must degrade gracefully (bounded expansion, high throughput).
//
// All codecs are self-contained (no external libraries) and deterministic.
// A section records its CodecId so readers are self-describing.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace qnn::codec {

using util::Bytes;
using util::ByteSpan;
using util::MutableByteSpan;

/// On-disk codec identifiers. Values are part of the checkpoint format —
/// never renumber.
enum class CodecId : std::uint8_t {
  kRaw = 0,      ///< identity
  kRle = 1,      ///< byte run-length encoding
  kLz = 2,       ///< LZ77, greedy hash-chain matcher
  kDeltaLz = 3,  ///< intra-buffer 64-bit XOR delta, then LZ
  kDeltaRle = 4, ///< intra-buffer 64-bit XOR delta, then RLE
};

/// Human-readable codec name ("raw", "rle", ...).
std::string codec_name(CodecId id);

/// Parses a codec name; throws std::invalid_argument on unknown names.
CodecId codec_from_name(const std::string& name);

/// Encodes `raw` with the given codec. Every codec has bounded worst-case
/// expansion (<= raw.size() + raw.size()/128 + 16 bytes).
Bytes encode(CodecId id, ByteSpan raw);

/// Decodes an encode() output. `raw_len` is the expected decoded size
/// (stored in the section header); mismatch raises std::runtime_error, as
/// does any malformed stream.
Bytes decode(CodecId id, ByteSpan encoded, std::size_t raw_len);

/// decode() into a caller's buffer of exactly the decoded size: the same
/// bytes and the same accept/reject decision. Raw, Lz and DeltaLz write
/// straight into `out`; the Rle codecs decode and copy.
void decode_into(CodecId id, ByteSpan encoded, MutableByteSpan out);

/// All codecs, for sweep-style tests and the T2 codec shootout.
inline constexpr CodecId kAllCodecs[] = {CodecId::kRaw, CodecId::kRle,
                                         CodecId::kLz, CodecId::kDeltaLz,
                                         CodecId::kDeltaRle};

// --- individual codec entry points (exposed for unit tests) ---

Bytes rle_encode(ByteSpan raw);
Bytes rle_decode(ByteSpan encoded, std::size_t raw_len);

/// Scalar-scan reference encoder: byte-identical token stream to
/// rle_encode (which vectorizes the run scan). Parity oracle for tests
/// and the forced-scalar rows of the throughput bench.
Bytes rle_encode_scalar(ByteSpan raw);

/// Greedy LZ encoder. Keeps a per-thread head table across calls, so
/// concurrent callers on different threads share no state.
Bytes lz_encode(ByteSpan raw);

namespace detail {
/// lz_encode with the head table's base ceiling lowered from 2^32 to
/// `base_limit` (clamped to [2, 2^32]): the table rebases whenever a
/// call would store a value at or above it, and an input that cannot
/// fit below it gets a 64-bit table of its own. Output is identical to
/// lz_encode for every input and limit; tests use a small limit to
/// reach both paths with small inputs.
Bytes lz_encode_with_base_limit(ByteSpan raw, std::uint64_t base_limit);
}  // namespace detail

/// Decodes into a buffer reserved to raw_len: a literal run or a
/// non-overlapping match is one memcpy, a distance-1 match one fill, and
/// other overlapping matches expand by doubling copies of the period
/// already written.
Bytes lz_decode(ByteSpan encoded, std::size_t raw_len);

/// lz_decode into a caller's buffer of exactly raw_len = out.size()
/// bytes: the same validation in the same order (the same exception for
/// every rejected stream), with no allocation. On a throw `out` holds
/// whatever was decoded before the fault.
void lz_decode_into(ByteSpan encoded, MutableByteSpan out);

/// Byte-at-a-time reference decoder: same output bytes and the same
/// accept/reject decision (same exception) as lz_decode and
/// lz_decode_into for every stream. Parity oracle for tests and the
/// scalar rows of the throughput bench.
Bytes lz_decode_scalar(ByteSpan encoded, std::size_t raw_len);

}  // namespace qnn::codec
