// LZ77 with a greedy hash-chain matcher (LZ4-flavoured token layout).
//
// Token stream, repeated until end of input:
//   varint literal_count
//   literal_count raw bytes
//   varint match_code:
//     0            -> end of stream (no match follows)
//     m >= 1       -> match of length m + kMinMatch - 1 (at most kMaxMatch,
//                     so m <= kMaxMatch - kMinMatch + 1)
//   varint distance (only when match_code != 0), 1-based back-reference
//
// Matches are found via a 4-byte-hash head table with single-step chains
// (head[hash] stores the most recent position), window-limited to kWindow.
// Worst case (incompressible input): the whole input is one literal run,
// expansion bound of n + O(varint overhead).
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "codec/codec.hpp"
#include "util/varint.hpp"

namespace qnn::codec {

namespace {
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1 << 16;
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kHashBits = 16;
// Largest match_code the encoder emits (match_length caps at kMaxMatch).
// Checked before len is computed: a code near 2^64 would wrap len to 0-2.
constexpr std::uint64_t kMaxMatchCode = kMaxMatch - kMinMatch + 1;

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Longest common prefix of [a, limit) and [b, limit-relative), capped.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         const std::uint8_t* limit) {
  std::size_t n = 0;
  while (a + n < limit && a[n] == b[n] && n < kMaxMatch) {
    ++n;
  }
  return n;
}
}  // namespace

Bytes lz_encode(ByteSpan raw) {
  Bytes out;
  out.reserve(raw.size() / 2 + 16);
  if (raw.empty()) {
    return out;
  }

  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  const std::uint8_t* base = raw.data();
  const std::uint8_t* limit = base + raw.size();

  std::size_t lit_start = 0;
  std::size_t i = 0;
  while (i + kMinMatch <= raw.size()) {
    const std::uint32_t h = hash4(base + i);
    const std::int64_t cand = head[h];
    head[h] = static_cast<std::int64_t>(i);

    std::size_t len = 0;
    if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow) {
      len = match_length(base + i, base + cand, limit);
    }
    if (len >= kMinMatch) {
      // Emit pending literals, then the match token.
      util::put_varint(out, i - lit_start);
      out.insert(out.end(),
                 raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
                 raw.begin() + static_cast<std::ptrdiff_t>(i));
      util::put_varint(out, len - kMinMatch + 1);
      util::put_varint(out, i - static_cast<std::size_t>(cand));

      // Insert hash entries inside the match so later matches can land
      // there too (sparse stride keeps encoding fast).
      const std::size_t end = i + len;
      for (std::size_t j = i + 1; j + kMinMatch <= raw.size() && j < end;
           j += 2) {
        head[hash4(base + j)] = static_cast<std::int64_t>(j);
      }
      i = end;
      lit_start = i;
    } else {
      ++i;
    }
  }

  // Trailing literals + end marker.
  util::put_varint(out, raw.size() - lit_start);
  out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
             raw.end());
  util::put_varint(out, 0);
  return out;
}

// The scalar decoder and the wide one (behind lz_decode and
// lz_decode_into) validate the same token sequence in the same order, so
// they accept and reject exactly the same streams (and throw the same
// exception for each rejected one); they differ only in how bytes move.

Bytes lz_decode_scalar(ByteSpan encoded, std::size_t raw_len) {
  Bytes out;
  out.reserve(raw_len);
  if (encoded.empty()) {
    if (raw_len != 0) {
      throw std::runtime_error("lz_decode: empty stream for non-empty output");
    }
    return out;
  }

  std::size_t pos = 0;
  while (true) {
    const std::uint64_t lits = util::get_varint(encoded, pos);
    if (lits > encoded.size() - pos) {
      throw std::runtime_error("lz_decode: truncated literals");
    }
    if (lits > raw_len - out.size()) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    out.insert(out.end(), encoded.begin() + static_cast<std::ptrdiff_t>(pos),
               encoded.begin() + static_cast<std::ptrdiff_t>(pos + lits));
    pos += lits;

    const std::uint64_t match_code = util::get_varint(encoded, pos);
    if (match_code == 0) {
      break;
    }
    if (match_code > kMaxMatchCode) {
      throw std::runtime_error("lz_decode: bad match length");
    }
    const std::uint64_t len = match_code + kMinMatch - 1;
    const std::uint64_t dist = util::get_varint(encoded, pos);
    if (dist == 0 || dist > out.size()) {
      throw std::runtime_error("lz_decode: bad match distance");
    }
    if (len > raw_len - out.size()) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    // Byte-by-byte copy: overlapping matches (dist < len) are legal and
    // reproduce the run-extension semantics of the encoder.
    std::size_t src = out.size() - dist;
    for (std::uint64_t k = 0; k < len; ++k) {
      out.push_back(out[src + k]);
    }
  }
  if (out.size() != raw_len) {
    throw std::runtime_error("lz_decode: output length mismatch");
  }
  return out;
}

namespace {

/// Where the wide decoder writes. AppendOut grows a Bytes reserved to
/// raw_len (lz_decode); SpanOut fills a caller's buffer of exactly
/// raw_len bytes (lz_decode_into). Both hand out the next `n` bytes of
/// output after the decoder has bounded n by raw_len - size().
class AppendOut {
 public:
  explicit AppendOut(Bytes& out) : out_(out) {}
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  void literals(const std::uint8_t* src, std::size_t n) {
    out_.insert(out_.end(), src, src + n);
  }
  /// A distance-1 match: the resize fill is the whole copy.
  void run(std::size_t n) { out_.resize(out_.size() + n, out_.back()); }
  /// Room for a match; resize zero-fills it before the copy lands.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

 private:
  Bytes& out_;
};

class SpanOut {
 public:
  explicit SpanOut(MutableByteSpan out) : base_(out.data()) {}
  [[nodiscard]] std::size_t size() const { return size_; }
  void literals(const std::uint8_t* src, std::size_t n) {
    if (n != 0) {
      std::memcpy(base_ + size_, src, n);
    }
    size_ += n;
  }
  void run(std::size_t n) {
    std::memset(base_ + size_, base_[size_ - 1], n);
    size_ += n;
  }
  std::uint8_t* grow(std::size_t n) {
    std::uint8_t* const at = base_ + size_;
    size_ += n;
    return at;
  }

 private:
  std::uint8_t* base_;
  std::size_t size_ = 0;
};

template <typename Out>
void lz_decode_wide(ByteSpan encoded, std::size_t raw_len, Out& out) {
  if (encoded.empty()) {
    if (raw_len != 0) {
      throw std::runtime_error("lz_decode: empty stream for non-empty output");
    }
    return;
  }

  std::size_t pos = 0;
  while (true) {
    const std::uint64_t lits = util::get_varint(encoded, pos);
    if (lits > encoded.size() - pos) {
      throw std::runtime_error("lz_decode: truncated literals");
    }
    if (lits > raw_len - out.size()) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    out.literals(encoded.data() + pos, lits);
    pos += lits;

    const std::uint64_t match_code = util::get_varint(encoded, pos);
    if (match_code == 0) {
      break;
    }
    if (match_code > kMaxMatchCode) {
      throw std::runtime_error("lz_decode: bad match length");
    }
    const std::size_t len = match_code + kMinMatch - 1;
    const std::uint64_t dist = util::get_varint(encoded, pos);
    if (dist == 0 || dist > out.size()) {
      throw std::runtime_error("lz_decode: bad match distance");
    }
    if (len > raw_len - out.size()) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    if (dist == 1) {
      // A run of one byte (zero runs of sparse and XOR-delta chunks).
      out.run(len);
      continue;
    }
    std::uint8_t* const op = out.grow(len);
    const std::uint8_t* const src = op - dist;
    if (dist >= len) {
      std::memcpy(op, src, len);
    } else {
      // Overlapping match: the output is the dist-byte period before op
      // repeated. Each copy doubles the written span, and its source
      // [src, src + n) ends at or before its destination op + done, so
      // every memcpy is non-overlapping.
      std::size_t done = 0;
      while (done < len) {
        const std::size_t n = std::min<std::size_t>(done + dist, len - done);
        std::memcpy(op + done, src, n);
        done += n;
      }
    }
  }
  if (out.size() != raw_len) {
    throw std::runtime_error("lz_decode: output length mismatch");
  }
}

}  // namespace

Bytes lz_decode(ByteSpan encoded, std::size_t raw_len) {
  // Reserved up front and grown by appends, so no byte is written twice
  // except those of a match at distance > 1 (resize zero-fills them
  // before the copy lands).
  Bytes out;
  out.reserve(raw_len);
  AppendOut sink(out);
  lz_decode_wide(encoded, raw_len, sink);
  return out;
}

void lz_decode_into(ByteSpan encoded, MutableByteSpan out) {
  SpanOut sink(out);
  lz_decode_wide(encoded, out.size(), sink);
}

}  // namespace qnn::codec
