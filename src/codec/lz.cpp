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
//
// The encoder keeps its head table per thread and reuses it across
// calls. A slot holds a position plus the call's table base, and every
// call's base lies above every value an earlier call stored, so stale
// slots read as empty without clearing a table per call. Each position
// still sees exactly the candidate a fresh table of positions would
// give it, so the token stream is the same as that of a per-call table.
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
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
constexpr std::size_t kHashSlots = std::size_t{1} << kHashBits;
// Largest match_code the encoder emits (match_length caps at kMaxMatch).
// Checked before len is computed: a code near 2^64 would wrap len to 0-2.
constexpr std::uint64_t kMaxMatchCode = kMaxMatch - kMinMatch + 1;
// Every value a u32 slot holds (base + position) stays below this.
constexpr std::uint64_t kTableBaseLimit = std::uint64_t{1} << 32;

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Length of the common prefix of a and b, which already agree on their
/// first kMinMatch bytes, up to `max_len`: eight bytes per step, the
/// first differing byte found from the XOR's lowest set bit.
std::size_t extend_match(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t max_len) {
  std::size_t n = kMinMatch;
  while (n + 8 <= max_len) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return n + static_cast<std::size_t>(bit / 8);
    }
    n += 8;
  }
  while (n < max_len && a[n] == b[n]) {
    ++n;
  }
  return n;
}

/// Scans forward from `i` for the next position whose head-table
/// candidate matches it for kMinMatch bytes, storing every scanned
/// position in the table on the way. Returns that position and sets
/// `dist` to the match distance, or returns a position past
/// n - kMinMatch when no match starts before the end. Live slots hold
/// `base + position`; a slot below `base` is empty.
///
/// The candidate test is branch-free: `bad` is non-zero when the slot
/// is empty or outside the window, an invalid candidate reads position
/// 0 (always in bounds), and `bad` is folded into the one comparison,
/// so the scan takes one well-predicted branch per byte. Kept out of
/// line so the scan's state stays in registers.
template <typename Pos>
[[gnu::noinline]] std::size_t find_match(const std::uint8_t* src,
                                         std::size_t n, Pos* head, Pos base,
                                         std::size_t i, std::size_t& dist) {
  for (; i + kMinMatch <= n; ++i) {
    const std::uint32_t word = load32(src + i);
    Pos& slot = head[hash4(word)];
    const Pos c = slot;
    const Pos here = static_cast<Pos>(base + i);
    slot = here;
    const std::uint64_t d = static_cast<Pos>(here - c);
    const std::uint64_t bad =
        ((static_cast<std::uint64_t>(c) - base) >> 63) | ((d - 1) / kWindow);
    const std::uint64_t keep = ((bad | (0 - bad)) >> 63) - 1;
    const std::size_t cand = static_cast<std::size_t>((i - d) & keep);
    if (((load32(src + cand) ^ word) | bad) == 0) {
      dist = static_cast<std::size_t>(d);
      return i;
    }
  }
  return i;
}

/// The greedy matcher over a head table whose live slots hold
/// `base + position`. The caller guarantees base >= 1 and that
/// base + raw.size() - 1 fits in Pos.
template <typename Pos>
void greedy_encode(ByteSpan raw, Pos* head, Pos base, Bytes& out) {
  const std::uint8_t* const src = raw.data();
  const std::size_t n = raw.size();
  std::size_t lit_start = 0;
  std::size_t dist = 0;
  for (std::size_t i = find_match(src, n, head, base, 0, dist);
       i + kMinMatch <= n;
       i = find_match(src, n, head, base, i, dist)) {
    const std::size_t len =
        extend_match(src + i, src + i - dist, std::min(n - i, kMaxMatch));
    // Emit pending literals, then the match token.
    put_varint(out, i - lit_start);
    out.insert(out.end(), src + lit_start, src + i);
    put_varint(out, len - kMinMatch + 1);
    put_varint(out, dist);

    // Insert hash entries inside the match so later matches can land
    // there too (sparse stride keeps encoding fast).
    const std::size_t end = i + len;
    for (std::size_t j = i + 1; j + kMinMatch <= n && j < end; j += 2) {
      head[hash4(load32(src + j))] = static_cast<Pos>(base + j);
    }
    i = end;
    lit_start = i;
  }

  // Trailing literals + end marker.
  put_varint(out, n - lit_start);
  out.insert(out.end(), src + lit_start, src + n);
  put_varint(out, 0);
}

/// One thread's head table, reused by every call on that thread.
struct PositionTable {
  std::unique_ptr<std::uint32_t[]> slots;
  std::uint64_t next_base = 1;  ///< above every value stored so far
};

thread_local PositionTable t_positions;
}  // namespace

namespace detail {
Bytes lz_encode_with_base_limit(ByteSpan raw, std::uint64_t base_limit) {
  Bytes out;
  if (raw.empty()) {
    return out;
  }
  // Sized for an incompressible input, which is then never regrown;
  // a compressible one gives the slack back below.
  out.reserve(raw.size() + raw.size() / 64 + 16);
  base_limit = std::clamp<std::uint64_t>(base_limit, 2, kTableBaseLimit);
  if (raw.size() >= base_limit - 1) {
    // Positions from base 1 would not stay below the limit: a fresh
    // 64-bit table for this call alone.
    std::vector<std::uint64_t> wide(kHashSlots, 0);
    greedy_encode<std::uint64_t>(raw, wide.data(), 1, out);
  } else {
    PositionTable& table = t_positions;
    if (!table.slots) {
      table.slots = std::make_unique<std::uint32_t[]>(kHashSlots);
    }
    if (table.next_base + raw.size() > base_limit) {
      // Rebase: clear the table once and start again from base 1.
      std::fill_n(table.slots.get(), kHashSlots, 0);
      table.next_base = 1;
    }
    const auto base = static_cast<std::uint32_t>(table.next_base);
    table.next_base += raw.size();
    greedy_encode<std::uint32_t>(raw, table.slots.get(), base, out);
  }
  if (out.capacity() - out.size() > out.size()) {
    out.shrink_to_fit();
  }
  return out;
}
}  // namespace detail

Bytes lz_encode(ByteSpan raw) {
  return detail::lz_encode_with_base_limit(raw, kTableBaseLimit);
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
