// Unit + property tests for qnn::codec — RLE, LZ, XOR deltas, registry.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "util/varint.hpp"
#include "util/rng.hpp"

namespace qnn::codec {
namespace {

using util::Bytes;
using util::ByteSpan;

// ---------- payload generators modelling real checkpoint sections ----------

Bytes zeros(std::size_t n) { return Bytes(n, 0); }

Bytes incompressible(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

Bytes runs(std::size_t n) {
  Bytes out;
  std::uint8_t v = 0;
  while (out.size() < n) {
    const std::size_t len =
        std::min<std::size_t>(1 + (v % 200), n - out.size());
    out.insert(out.end(), len, v);
    v = static_cast<std::uint8_t>(v * 31 + 7);
  }
  return out;
}

Bytes repeated_text(std::size_t n) {
  const std::string phrase = "hybrid quantum-classical training state ";
  Bytes out;
  while (out.size() < n) {
    const std::size_t take = std::min(phrase.size(), n - out.size());
    out.insert(out.end(), phrase.begin(), phrase.begin() + take);
  }
  return out;
}

/// Slowly varying doubles (what Adam moments look like).
Bytes similar_doubles(std::size_t n_doubles, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out;
  double v = 1.0;
  for (std::size_t i = 0; i < n_doubles; ++i) {
    v += rng.normal() * 1e-9;
    util::put_le<double>(out, v);
  }
  return out;
}

struct PayloadCase {
  std::string name;
  Bytes data;
};

std::vector<PayloadCase> payload_cases() {
  return {
      {"empty", {}},
      {"one_byte", {0x42}},
      {"three_bytes", {1, 2, 3}},
      {"zeros_small", zeros(17)},
      {"zeros_large", zeros(100000)},
      {"runs", runs(5000)},
      {"text", repeated_text(4096)},
      {"random_small", incompressible(255, 1)},
      {"random_large", incompressible(1 << 17, 2)},
      {"similar_doubles", similar_doubles(4096, 3)},
      {"alternating", [] {
         Bytes b;
         for (int i = 0; i < 1000; ++i) {
           b.push_back(i % 2 ? 0xFF : 0x00);
         }
         return b;
       }()},
  };
}

// ---------- parameterised round-trip property over codecs x payloads -------

using CodecPayload = std::tuple<CodecId, int>;

class CodecRoundTrip : public ::testing::TestWithParam<CodecPayload> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  const Bytes decoded = decode(id, encoded, pc.data.size());
  EXPECT_EQ(decoded, pc.data) << codec_name(id) << " on " << pc.name;
}

TEST_P(CodecRoundTrip, DecodeIntoMatchesDecode) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  Bytes into(pc.data.size(), 0xEE);
  decode_into(id, encoded, into);
  EXPECT_EQ(into, pc.data) << codec_name(id) << " on " << pc.name;
  // A buffer of the wrong size is a length mismatch, as in decode().
  Bytes longer(pc.data.size() + 1);
  EXPECT_THROW(decode_into(id, encoded, longer), std::runtime_error)
      << codec_name(id) << " on " << pc.name;
}

TEST_P(CodecRoundTrip, WorstCaseExpansionBounded) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  EXPECT_LE(encoded.size(), pc.data.size() + pc.data.size() / 128 + 16)
      << codec_name(id) << " on " << pc.name;
}

std::string codec_payload_name(
    const ::testing::TestParamInfo<CodecPayload>& info) {
  const CodecId id = std::get<0>(info.param);
  const int payload_idx = std::get<1>(info.param);
  std::string name =
      codec_name(id) + "_" +
      payload_cases()[static_cast<std::size_t>(payload_idx)].name;
  for (char& c : name) {
    if (c == '+') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPayloads, CodecRoundTrip,
    ::testing::Combine(::testing::ValuesIn(std::vector<CodecId>(
                           std::begin(kAllCodecs), std::end(kAllCodecs))),
                       ::testing::Range(0, 11)),
    codec_payload_name);

// ---------- compression effectiveness (the T2 claim shapes) ----------

TEST(CodecEffectiveness, RleCollapsesZeroRuns) {
  const Bytes data = zeros(100000);
  // Max run length is 131, so the floor is ~2 bytes per 131 zeros.
  EXPECT_LT(encode(CodecId::kRle, data).size(), data.size() / 50);
}

TEST(CodecEffectiveness, LzCollapsesRepeatedText) {
  const Bytes data = repeated_text(8192);
  EXPECT_LT(encode(CodecId::kLz, data).size(), data.size() / 10);
}

TEST(CodecEffectiveness, DeltaHelpsSimilarDoubles) {
  const Bytes data = similar_doubles(8192, 9);
  const std::size_t plain = encode(CodecId::kLz, data).size();
  const std::size_t delta = encode(CodecId::kDeltaLz, data).size();
  EXPECT_LT(delta, plain);
}

TEST(CodecEffectiveness, RandomDataDoesNotBlowUp) {
  const Bytes data = incompressible(1 << 16, 11);
  for (CodecId id : kAllCodecs) {
    EXPECT_LE(encode(id, data).size(), data.size() + data.size() / 128 + 16)
        << codec_name(id);
  }
}

// ---------- RLE specifics ----------

TEST(Rle, EncodesLongRunCompactly) {
  const Bytes data(131, 0x7);  // exactly max run length
  const Bytes enc = rle_encode(data);
  EXPECT_EQ(enc.size(), 2u);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, ShortRunsStayLiteral) {
  const Bytes data{1, 1, 1, 2, 2, 2};  // runs of 3 < kMinRun
  const Bytes enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, DecodeRejectsTruncatedLiteral) {
  Bytes enc{0x05, 1, 2};  // literal run of 6, only 2 present
  EXPECT_THROW(rle_decode(enc, 6), std::runtime_error);
}

TEST(Rle, DecodeRejectsTruncatedRepeat) {
  Bytes enc{0x80};  // repeat token without the byte
  EXPECT_THROW(rle_decode(enc, 4), std::runtime_error);
}

TEST(Rle, DecodeRejectsLengthMismatch) {
  const Bytes data(50, 9);
  const Bytes enc = rle_encode(data);
  EXPECT_THROW(rle_decode(enc, 49), std::runtime_error);
  EXPECT_THROW(rle_decode(enc, 51), std::runtime_error);
}

// ---------- LZ specifics ----------

TEST(Lz, OverlappingMatchExtendsRuns) {
  // "abcabcabc..." triggers dist < len copies.
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
  }
  const Bytes enc = lz_encode(data);
  EXPECT_LT(enc.size(), 64u);
  EXPECT_EQ(lz_decode(enc, data.size()), data);
}

TEST(Lz, DecodeRejectsBadDistance) {
  Bytes enc;
  util::put_varint(enc, 1);  // 1 literal
  enc.push_back('x');
  util::put_varint(enc, 1);   // match len 4
  util::put_varint(enc, 99);  // distance beyond output
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);
}

TEST(Lz, DecodeRejectsZeroDistance) {
  Bytes enc;
  util::put_varint(enc, 1);
  enc.push_back('x');
  util::put_varint(enc, 1);
  util::put_varint(enc, 0);
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);
}

TEST(Lz, DecodeRejectsTruncatedLiterals) {
  Bytes enc;
  util::put_varint(enc, 10);
  enc.push_back('x');  // 9 missing
  EXPECT_THROW(lz_decode(enc, 10), std::runtime_error);
}

TEST(Lz, DecodeRejectsOverlongOutput) {
  const Bytes data = repeated_text(256);
  const Bytes enc = lz_encode(data);
  EXPECT_THROW(lz_decode(enc, 100), std::runtime_error);
}

TEST(Lz, WindowBoundaryRoundTrip) {
  // Repetition spaced near the 64 KiB window edge.
  Bytes data = incompressible(1 << 16, 20);
  const Bytes prefix(data.begin(), data.begin() + 512);
  data.insert(data.end(), prefix.begin(), prefix.end());
  const Bytes enc = lz_encode(data);
  EXPECT_EQ(lz_decode(enc, data.size()), data);
}

// ---------- LZ decoder vs its byte-at-a-time oracle ----------
//
// lz_decode and lz_decode_into copy literal runs and matches with
// memcpy (doubling the period of an overlapping match);
// lz_decode_scalar is the byte loop. For every stream all three must
// return the same bytes, or all throw the same exception.

/// The decoded bytes, or "<exception type>: <what>" of the throw.
struct LzOutcome {
  bool ok = false;
  Bytes bytes;
  std::string error;
  bool operator==(const LzOutcome&) const = default;
};

template <typename Decode>
LzOutcome run_lz(Decode&& decode, ByteSpan enc, std::size_t raw_len) {
  LzOutcome o;
  try {
    o.bytes = decode(enc, raw_len);
    o.ok = true;
  } catch (const std::out_of_range& e) {
    o.error = std::string("out_of_range: ") + e.what();
  } catch (const std::runtime_error& e) {
    o.error = std::string("runtime_error: ") + e.what();
  }
  return o;
}

/// lz_decode_into over a fresh buffer, in lz_decode's shape.
Bytes lz_decode_into_fresh(ByteSpan enc, std::size_t raw_len) {
  Bytes out(raw_len, 0xEE);
  lz_decode_into(enc, out);
  return out;
}

void expect_lz_parity(ByteSpan enc, std::size_t raw_len,
                      const std::string& where) {
  const LzOutcome wide = run_lz(lz_decode, enc, raw_len);
  const LzOutcome into = run_lz(lz_decode_into_fresh, enc, raw_len);
  const LzOutcome scalar = run_lz(lz_decode_scalar, enc, raw_len);
  EXPECT_TRUE(wide == scalar) << where << ": '" << wide.error << "' vs '"
                              << scalar.error << "'";
  EXPECT_TRUE(into == scalar) << where << ": '" << into.error << "' vs '"
                              << scalar.error << "'";
}

/// One literal run of `lits`, then one match token (`match_code`,
/// `dist`), then the end marker.
Bytes lz_stream(const Bytes& lits, std::uint64_t match_code,
                std::uint64_t dist) {
  Bytes enc;
  util::put_varint(enc, lits.size());
  enc.insert(enc.end(), lits.begin(), lits.end());
  util::put_varint(enc, match_code);
  util::put_varint(enc, dist);
  util::put_varint(enc, 0);
  util::put_varint(enc, 0);
  return enc;
}

TEST(LzParity, EveryShortDistanceAcrossDoublingSteps) {
  // dist 1..70 against lengths on both sides of each doubling step of
  // the overlapping copy (done = dist, 3*dist, 7*dist, ...), with the
  // match ending exactly at raw_len.
  for (std::size_t dist = 1; dist <= 70; ++dist) {
    const Bytes lits = incompressible(dist, 700 + dist);
    std::vector<std::size_t> lens = {4, 5, 1000, 65536};
    for (std::size_t k = 1; k * dist <= 65536; k = 2 * k + 1) {
      for (std::size_t step : {k * dist - 1, k * dist, k * dist + 1}) {
        if (step >= 4 && step <= 65536) {
          lens.push_back(step);
        }
      }
    }
    for (const std::size_t len : lens) {
      const Bytes enc = lz_stream(lits, len - 3, dist);
      const std::size_t raw_len = dist + len;
      Bytes want = lits;
      for (std::size_t i = 0; i < len; ++i) {
        want.push_back(want[want.size() - dist]);
      }
      const std::string where =
          "dist=" + std::to_string(dist) + " len=" + std::to_string(len);
      ASSERT_EQ(lz_decode(enc, raw_len), want) << where;
      expect_lz_parity(enc, raw_len, where);
      // One byte short of the match: both reject before copying.
      EXPECT_THROW(lz_decode(enc, raw_len - 1), std::runtime_error) << where;
      expect_lz_parity(enc, raw_len - 1, where + " short");
    }
  }
}

TEST(LzParity, MatchCodeNear2To64IsRejectedNotWrapped) {
  // match_code + kMinMatch - 1 wraps to 0, 1 or 2 for the top three
  // codes; a decoder that computed len first accepted these as tiny
  // matches no encoder emits.
  for (const std::uint64_t code :
       {~std::uint64_t{0} - 2, ~std::uint64_t{0} - 1, ~std::uint64_t{0}}) {
    const Bytes enc = lz_stream({'x'}, code, 1);
    for (const std::size_t raw_len : {1, 2, 3}) {
      EXPECT_THROW(lz_decode(enc, raw_len), std::runtime_error);
      EXPECT_THROW(lz_decode_scalar(enc, raw_len), std::runtime_error);
      expect_lz_parity(enc, raw_len, "code=" + std::to_string(code));
    }
  }
  // The largest code the encoder can emit (a 64 KiB match) still
  // decodes; one past it is rejected.
  const std::size_t max_len = 1 << 16;
  const Bytes max_enc = lz_stream({'y'}, max_len - 3, 1);
  EXPECT_EQ(lz_decode(max_enc, 1 + max_len), Bytes(1 + max_len, 'y'));
  const Bytes over_enc = lz_stream({'y'}, max_len - 2, 1);
  EXPECT_THROW(lz_decode(over_enc, 2 + max_len), std::runtime_error);
  expect_lz_parity(over_enc, 2 + max_len, "code one past the maximum");
}

TEST(LzParity, LiteralRunPastDeclaredLengthIsRejected) {
  const Bytes lits = incompressible(64, 77);
  Bytes enc;
  util::put_varint(enc, lits.size());
  enc.insert(enc.end(), lits.begin(), lits.end());
  util::put_varint(enc, 0);
  EXPECT_EQ(lz_decode(enc, 64), lits);
  for (const std::size_t raw_len : {0, 1, 63}) {
    EXPECT_THROW(lz_decode(enc, raw_len), std::runtime_error);
    expect_lz_parity(enc, raw_len, "raw_len=" + std::to_string(raw_len));
  }
}

TEST(LzParity, EncoderOutputsDecodeIdentically) {
  for (const PayloadCase& pc : payload_cases()) {
    const Bytes enc = lz_encode(pc.data);
    EXPECT_EQ(lz_decode_scalar(enc, pc.data.size()), pc.data) << pc.name;
    expect_lz_parity(enc, pc.data.size(), pc.name);
  }
}

TEST(LzParity, RandomTokenStreamFuzz) {
  // Seeded random token streams: mostly well-formed tokens, with bad
  // distances, oversize or huge match codes, literal runs past the
  // declared or the encoded length, truncation and wrong declared
  // lengths mixed in. Both decoders must agree on every one.
  util::Rng rng(20240611);
  int accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Bytes enc;
    std::size_t produced = 0;
    const int tokens = 1 + static_cast<int>(rng.uniform_u64(12));
    for (int t = 0; t < tokens; ++t) {
      const std::size_t lits = rng.uniform_u64(40);
      util::put_varint(enc, lits);
      for (std::size_t i = 0; i < lits; ++i) {
        enc.push_back(static_cast<std::uint8_t>(rng() % 4));
      }
      produced += lits;
      const std::uint64_t kind = rng.uniform_u64(20);
      std::uint64_t code = 1 + rng.uniform_u64(300);
      if (kind == 0) {
        code = ~std::uint64_t{0} - rng.uniform_u64(4);
      } else if (kind == 1) {
        code = 65533 + rng.uniform_u64(3);
      }
      std::uint64_t dist = produced == 0 ? 1 : 1 + rng.uniform_u64(produced);
      if (kind == 2) {
        dist = 0;
      } else if (kind == 3) {
        dist = produced + 1 + rng.uniform_u64(8);
      }
      util::put_varint(enc, code);
      util::put_varint(enc, dist);
      if (code <= 65533) {
        produced += code + 3;
      }
    }
    const std::size_t tail = rng.uniform_u64(3);  // trailing literals
    util::put_varint(enc, tail);
    enc.insert(enc.end(), tail, 0x5A);
    produced += tail;
    util::put_varint(enc, 0);
    std::size_t raw_len = produced;
    switch (rng.uniform_u64(6)) {
      case 0:
        raw_len = produced + 1 + rng.uniform_u64(16);
        break;
      case 1:
        raw_len = produced - std::min<std::size_t>(produced,
                                                   1 + rng.uniform_u64(16));
        break;
      case 2:
        enc.resize(rng.uniform_u64(enc.size()));
        break;
      default:
        break;
    }
    const LzOutcome wide = run_lz(lz_decode, enc, raw_len);
    const LzOutcome scalar = run_lz(lz_decode_scalar, enc, raw_len);
    ASSERT_TRUE(wide == scalar) << "trial " << trial << ": '" << wide.error
                                << "' vs '" << scalar.error << "'";
    accepted += wide.ok ? 1 : 0;
  }
  // The mix exercises both outcomes, not only rejections.
  EXPECT_GT(accepted, 40);
  EXPECT_LT(accepted, 360);
}

// ---------- LZ encoder vs the greedy reference ----------
//
// lz_encode keeps a per-thread head table across calls, tests candidates
// without branches and extends matches eight bytes at a time. None of
// that may change a single output byte: the reference below is the
// straightforward encoder it replaced (a fresh 64-bit table per call,
// byte-wise match extension), and every test compares bytes, not just
// round trips.

Bytes greedy_lz_reference(ByteSpan raw) {
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kMaxMatch = 1 << 16;
  constexpr std::size_t kWindow = 1 << 16;
  constexpr std::size_t kHashBits = 16;
  const auto hash4 = [](const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  Bytes out;
  if (raw.empty()) {
    return out;
  }
  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  const std::uint8_t* base = raw.data();
  std::size_t lit_start = 0;
  std::size_t i = 0;
  while (i + kMinMatch <= raw.size()) {
    const std::uint32_t h = hash4(base + i);
    const std::int64_t cand = head[h];
    head[h] = static_cast<std::int64_t>(i);
    std::size_t len = 0;
    if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow) {
      while (i + len < raw.size() && base[i + len] == base[cand + len] &&
             len < kMaxMatch) {
        ++len;
      }
    }
    if (len < kMinMatch) {
      ++i;
      continue;
    }
    util::put_varint(out, i - lit_start);
    out.insert(out.end(), base + lit_start, base + i);
    util::put_varint(out, len - kMinMatch + 1);
    util::put_varint(out, i - static_cast<std::size_t>(cand));
    const std::size_t end = i + len;
    for (std::size_t j = i + 1; j + kMinMatch <= raw.size() && j < end;
         j += 2) {
      head[hash4(base + j)] = static_cast<std::int64_t>(j);
    }
    i = end;
    lit_start = i;
  }
  util::put_varint(out, raw.size() - lit_start);
  out.insert(out.end(), base + lit_start, base + raw.size());
  util::put_varint(out, 0);
  return out;
}

/// One seeded fuzz input: entropy, a small alphabet, a noisy motif,
/// an entropy prefix with a zero tail, or a block repeated just inside
/// or just outside the 64 KiB window.
Bytes lz_fuzz_input(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  switch (rng.uniform_u64(5)) {
    case 0:
      for (auto& b : out) {
        b = static_cast<std::uint8_t>(rng());
      }
      break;
    case 1: {
      const std::uint64_t alphabet = 2 + rng.uniform_u64(6);
      for (auto& b : out) {
        b = static_cast<std::uint8_t>('a' + rng.uniform_u64(alphabet));
      }
      break;
    }
    case 2: {
      Bytes motif(1 + rng.uniform_u64(64));
      for (auto& b : motif) {
        b = static_cast<std::uint8_t>(rng());
      }
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = motif[i % motif.size()];
        if (rng.uniform_u64(40) == 0) {
          out[i] = static_cast<std::uint8_t>(rng());
        }
      }
      break;
    }
    case 3: {
      const std::size_t keep = rng.uniform_u64(n + 1);
      for (std::size_t i = 0; i < keep; ++i) {
        out[i] = static_cast<std::uint8_t>(rng());
      }
      break;
    }
    default: {
      for (auto& b : out) {
        b = static_cast<std::uint8_t>(rng());
      }
      // Copy a block to a distance within a few bytes of the window.
      const std::size_t dist = (std::size_t{1} << 16) - 3 + rng.uniform_u64(7);
      for (std::size_t i = dist; i < n && i < dist + 600; ++i) {
        out[i] = out[i - dist];
      }
    }
  }
  return out;
}

TEST(LzEncodeParity, MatchesReferenceOnEveryPayload) {
  std::vector<PayloadCase> cases = payload_cases();
  Bytes abc;
  for (int i = 0; i < 1000; ++i) {
    abc.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
  }
  cases.push_back({"abc_runs", abc});
  Bytes window = incompressible(1 << 16, 20);
  window.insert(window.end(), window.begin(), window.begin() + 512);
  cases.push_back({"window_boundary", window});
  cases.push_back({"text_256", repeated_text(256)});
  for (const PayloadCase& pc : cases) {
    EXPECT_EQ(lz_encode(pc.data), greedy_lz_reference(pc.data)) << pc.name;
  }
}

TEST(LzEncodeParity, SeededFuzzOnOneThread) {
  // Many calls on one thread: every call after the first reuses the
  // thread's head table, whose slots still hold earlier inputs.
  util::Rng rng(20261020);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_u64(70001));
    const Bytes data = lz_fuzz_input(rng, n);
    ASSERT_EQ(lz_encode(data), greedy_lz_reference(data))
        << "trial " << trial << " n=" << n;
  }
}

TEST(LzEncodeParity, ConcurrentThreadsMatchReference) {
  // Each thread has its own table; interleaved calls on four threads
  // must each produce the reference bytes.
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int trial = 0; trial < 60; ++trial) {
        const auto n = static_cast<std::size_t>(rng.uniform_u64(70001));
        const Bytes data = lz_fuzz_input(rng, n);
        if (lz_encode(data) != greedy_lz_reference(data)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

TEST(LzEncodeParity, TableRebaseKeepsOutput) {
  // A base limit of a few inputs' worth makes the table rebase every
  // few calls (the path a thread reaches after 4 GiB of input), and
  // inputs at or above the limit take the 64-bit table.
  util::Rng rng(77);
  int wide = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t limit = 2 + rng.uniform_u64(150000);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_u64(70001));
    wide += n + 1 >= limit ? 1 : 0;
    const Bytes data = lz_fuzz_input(rng, n);
    ASSERT_EQ(detail::lz_encode_with_base_limit(data, limit),
              greedy_lz_reference(data))
        << "trial " << trial << " n=" << n << " limit=" << limit;
    // The default entry point right after a small-limit call.
    ASSERT_EQ(lz_encode(data), greedy_lz_reference(data)) << "trial " << trial;
  }
  EXPECT_GT(wide, 10);
  EXPECT_LT(wide, 290);
}

// ---------- XOR delta ----------

TEST(XorDelta, WithParentIsInvolution) {
  const Bytes a = incompressible(1000, 30);
  const Bytes b = incompressible(1000, 31);
  const Bytes delta = xor_with_parent(a, b);
  EXPECT_EQ(xor_with_parent(delta, b), a);
}

TEST(XorDelta, IdenticalPayloadsDeltaToZeros) {
  const Bytes a = incompressible(512, 32);
  const Bytes delta = xor_with_parent(a, a);
  EXPECT_EQ(delta, zeros(512));
}

TEST(XorDelta, ChildLongerThanParentTailPassesThrough) {
  const Bytes child = incompressible(100, 33);
  const Bytes parent = incompressible(60, 34);
  const Bytes delta = xor_with_parent(child, parent);
  for (std::size_t i = 60; i < 100; ++i) {
    ASSERT_EQ(delta[i], child[i]);
  }
  EXPECT_EQ(xor_with_parent(delta, parent), child);
}

TEST(XorDelta, Intra64RoundTrip) {
  for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 16ul, 123ul, 4096ul}) {
    const Bytes data = incompressible(n, 35 + n);
    EXPECT_EQ(xor_undelta64(xor_delta64(data)), data) << "n=" << n;
  }
}

TEST(XorDelta, Intra64LeavesTailUntouched) {
  const Bytes data = incompressible(19, 36);  // 2 words + 3 tail bytes
  const Bytes delta = xor_delta64(data);
  for (std::size_t i = 16; i < 19; ++i) {
    ASSERT_EQ(delta[i], data[i]);
  }
}

// ---------- randomized roundtrips ----------

/// Every codec must round-trip arbitrary random-sized inputs at both ends
/// of the entropy spectrum: incompressible noise (statevector-like) and
/// highly repetitive bytes (delta'd-optimizer-like).
TEST(RandomizedRoundTrip, IncompressibleInputsAllCodecs) {
  util::Rng rng(20250726);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 5000);
    const Bytes data = incompressible(n, rng());
    for (CodecId id : kAllCodecs) {
      const Bytes enc = encode(id, data);
      EXPECT_EQ(decode(id, enc, data.size()), data)
          << codec_name(id) << " n=" << n << " trial=" << trial;
      // Bounded worst-case expansion (codec.hpp contract).
      EXPECT_LE(enc.size(), data.size() + data.size() / 128 + 16)
          << codec_name(id) << " n=" << n;
    }
  }
}

TEST(RandomizedRoundTrip, RepetitiveInputsAllCodecs) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 5000);
    // Random run structure: a few distinct byte values in random-length
    // runs, the shape RLE/LZ are meant to collapse.
    Bytes data;
    while (data.size() < n) {
      const auto value = static_cast<std::uint8_t>(rng() % 4);
      const std::size_t len =
          std::min<std::size_t>(1 + rng() % 300, n - data.size());
      data.insert(data.end(), len, value);
    }
    for (CodecId id : kAllCodecs) {
      const Bytes enc = encode(id, data);
      EXPECT_EQ(decode(id, enc, data.size()), data)
          << codec_name(id) << " n=" << n << " trial=" << trial;
    }
  }
}

// ---------- vectorized kernels vs scalar oracles ----------
//
// The default entry points (SSE2-assisted on x86-64) must emit EXACTLY
// the bytes the scalar reference loops emit — for RLE that means the
// identical token stream, not just a stream that decodes back.

TEST(SimdParity, XorKernelsMatchScalarOnAllPayloads) {
  for (const PayloadCase& pc : payload_cases()) {
    EXPECT_EQ(xor_delta64(pc.data), xor_delta64_scalar(pc.data)) << pc.name;
    EXPECT_EQ(xor_undelta64(pc.data), xor_undelta64_scalar(pc.data))
        << pc.name;
  }
}

TEST(SimdParity, RleTokenStreamMatchesScalarOnAllPayloads) {
  for (const PayloadCase& pc : payload_cases()) {
    EXPECT_EQ(rle_encode(pc.data), rle_encode_scalar(pc.data)) << pc.name;
  }
}

TEST(SimdParity, FuzzAcrossLengthsAndContent) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng.uniform_u64(4200);
    Bytes data(n);
    // Mixed regime: runs of a repeated byte interleaved with noise, the
    // content most likely to hit the RLE scan's block/tail boundaries.
    std::size_t i = 0;
    while (i < n) {
      const auto b = static_cast<std::uint8_t>(rng());
      std::size_t len = 1 + rng.uniform_u64(20);
      const bool noisy = (rng() & 1) != 0;
      while (len-- > 0 && i < n) {
        data[i++] = noisy ? static_cast<std::uint8_t>(rng()) : b;
      }
    }
    ASSERT_EQ(rle_encode(data), rle_encode_scalar(data)) << "trial " << trial;
    ASSERT_EQ(xor_delta64(data), xor_delta64_scalar(data)) << "trial "
                                                           << trial;
    ASSERT_EQ(xor_undelta64(data), xor_undelta64_scalar(data))
        << "trial " << trial;
    ASSERT_EQ(xor_undelta64(xor_delta64(data)), data) << "trial " << trial;
  }
}

TEST(SimdParity, XorWithParentMatchesScalarOnMismatchedLengths) {
  util::Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes data = incompressible(rng.uniform_u64(600), 10 + trial);
    const Bytes parent = incompressible(rng.uniform_u64(600), 900 + trial);
    ASSERT_EQ(xor_with_parent(data, parent),
              xor_with_parent_scalar(data, parent))
        << "trial " << trial;
  }
}

// ---------- registry ----------

TEST(Registry, NamesRoundTrip) {
  for (CodecId id : kAllCodecs) {
    EXPECT_EQ(codec_from_name(codec_name(id)), id);
  }
  EXPECT_THROW(codec_from_name("bogus"), std::invalid_argument);
}

TEST(Registry, RawLengthMismatchThrows) {
  const Bytes data{1, 2, 3};
  EXPECT_THROW(decode(CodecId::kRaw, data, 4), std::runtime_error);
}

TEST(Registry, DecodeIsDeterministic) {
  const Bytes data = similar_doubles(1024, 40);
  for (CodecId id : kAllCodecs) {
    EXPECT_EQ(encode(id, data), encode(id, data)) << codec_name(id);
  }
}

}  // namespace
}  // namespace qnn::codec
