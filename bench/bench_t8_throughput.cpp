// T8 — Hot-path raw throughput: SIMD vs scalar kernels, concurrent
// dedup probes.
//
// Two families of rows, all RESULT lines tagged gated:false — wall-
// clock MB/s is machine-dependent by design, so the artifact tracks it
// but check_regression.py never compares it against baselines.json:
//
//   * bytes/s for the byte-crunching kernels the checkpoint pipeline
//     charges on every chunk — CRC32C, CRC64, the intra-buffer XOR
//     delta pair, XOR-against-parent, the RLE encoder scan and the LZ
//     decoder — each measured through the dispatched (SIMD) or wide-
//     copy entry point AND the scalar oracle kept for parity testing.
//     The "speedup_x" field is the ratio; on SSE4.2+PCLMUL hardware
//     CRC32C should clear 1. LZ decode MB/s counts decoded bytes.
//   * bytes/s of the LZ encoder on one 64 KiB chunk per content regime
//     (raw bytes in). Its reference encoder lives in the tests, not the
//     library, so these rows carry one MB/s figure and no ratio.
//   * chunks/s for concurrent dedup probes against one ChunkStore at
//     1/4/8 threads — the sharded index replaced the global mutex +
//     std::map, so probe throughput should scale with threads instead
//     of serialising (on a single-core CI runner the scaling column is
//     flat; that is the machine, not the index).
//
// RLE rows run two content regimes: "entropy" (incompressible, the
// scan's worst case and the vectorization target) and "runny" (mostly
// repeats, where run extension dominates the scan).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/cas.hpp"
#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "io/mem_env.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace qnn;

namespace {

constexpr std::size_t kBufBytes = 1 << 20;  // 1 MiB per kernel pass
constexpr int kPasses = 64;                 // 64 MiB per measurement

util::Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

util::Bytes runny_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes out(n);
  std::size_t i = 0;
  while (i < n) {
    const auto b = static_cast<std::uint8_t>(rng());
    std::size_t run = 1 + rng() % 64;
    while (run-- > 0 && i < n) {
      out[i++] = b;
    }
  }
  return out;
}

/// Runs `fn(buffer)` kPasses times and returns MB/s (decimal MB).
template <typename Fn>
double throughput_mb_s(util::ByteSpan buf, Fn&& fn) {
  // One warmup pass settles dispatch latching and cache state.
  fn(buf);
  util::Timer t;
  for (int i = 0; i < kPasses; ++i) {
    fn(buf);
  }
  const double s = t.seconds();
  return s > 0.0
             ? static_cast<double>(buf.size()) * kPasses / s / 1e6
             : 0.0;
}

void emit_kernel_row(const char* metric, const char* content, double simd,
                     double scalar) {
  const double speedup = scalar > 0.0 ? simd / scalar : 0.0;
  std::printf("%-16s %-8s %10.0f %10.0f %7.2fx\n", metric, content, simd,
              scalar, speedup);
  bench::JsonLine("t8")
      .field("metric", metric)
      .field("content", content)
      .field("backend", util::crc_backend())
      .field("simd_mb_s", simd)
      .field("scalar_mb_s", scalar)
      .field("speedup_x", speedup)
      .field("gated", false)
      .emit();
}

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

/// MB/s of decoded output: decodes `encoded` back to `raw_len` bytes
/// until kPasses * kBufBytes raw bytes have been produced.
template <typename Decode>
double decode_mb_s(util::ByteSpan encoded, std::size_t raw_len,
                   Decode&& decode) {
  const int reps = static_cast<int>(kPasses * kBufBytes / raw_len);
  g_sink = g_sink + decode(encoded, raw_len)[0];  // warmup
  util::Timer t;
  for (int i = 0; i < reps; ++i) {
    g_sink = g_sink + decode(encoded, raw_len)[0];
  }
  const double s = t.seconds();
  return s > 0.0 ? static_cast<double>(raw_len) * reps / s / 1e6 : 0.0;
}

/// lz_decode (wide copies) against lz_decode_scalar (byte loop) on one
/// 64 KiB chunk, the store's chunk size, per content regime.
void emit_lz_decode_row(const char* content, const util::Bytes& raw) {
  const util::Bytes enc = codec::lz_encode(raw);
  emit_kernel_row("lz_decode", content,
                  decode_mb_s(enc, raw.size(),
                              [](util::ByteSpan e, std::size_t n) {
                                return codec::lz_decode(e, n);
                              }),
                  decode_mb_s(enc, raw.size(),
                              [](util::ByteSpan e, std::size_t n) {
                                return codec::lz_decode_scalar(e, n);
                              }));
}

/// A 48-byte motif repeated, one byte in 64 replaced at random: many
/// short matches with literals between them.
util::Bytes motif_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const util::Bytes motif = random_bytes(48, seed + 1);
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rng() % 64 == 0 ? static_cast<std::uint8_t>(rng())
                             : motif[i % motif.size()];
  }
  return out;
}

/// lz_encode MB/s of raw input on one 64 KiB chunk, the store's chunk
/// size, encoded until kPasses * kBufBytes raw bytes have gone in.
void emit_lz_encode_row(const char* content, const util::Bytes& raw) {
  const int reps = static_cast<int>(kPasses * kBufBytes / raw.size());
  g_sink = g_sink + codec::lz_encode(raw).size();  // warmup
  util::Timer t;
  for (int i = 0; i < reps; ++i) {
    g_sink = g_sink + codec::lz_encode(raw).size();
  }
  const double s = t.seconds();
  const double mb_s =
      s > 0.0 ? static_cast<double>(raw.size()) * reps / s / 1e6 : 0.0;
  std::printf("%-16s %-8s %10.0f\n", "lz_encode", content, mb_s);
  bench::JsonLine("t8")
      .field("metric", "lz_encode")
      .field("content", content)
      .field("mb_s", mb_s)
      .field("gated", false)
      .emit();
}

void bench_kernels() {
  const util::Bytes entropy = random_bytes(kBufBytes, 42);
  const util::Bytes runny = runny_bytes(kBufBytes, 43);
  const util::Bytes parent = random_bytes(kBufBytes, 44);

  std::printf("%-16s %-8s %10s %10s %8s\n", "kernel", "content", "simd",
              "scalar", "speedup");
  bench::rule(56);

  emit_kernel_row("crc32c", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink = g_sink + util::crc32c(b);
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + util::crc32c_scalar(b);
                  }));
  emit_kernel_row("crc64", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink = g_sink + util::crc64(b);
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + util::crc64_scalar(b);
                  }));
  emit_kernel_row("xor_delta64", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink = g_sink + codec::xor_delta64(b)[0];
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::xor_delta64_scalar(b)[0];
                  }));
  emit_kernel_row("xor_undelta64", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink =
                                        g_sink + codec::xor_undelta64(b)[0];
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::xor_undelta64_scalar(b)[0];
                  }));
  emit_kernel_row(
      "xor_with_parent", "entropy",
      throughput_mb_s(entropy,
                      [&](util::ByteSpan b) {
                        g_sink = g_sink + codec::xor_with_parent(b, parent)[0];
                      }),
      throughput_mb_s(entropy, [&](util::ByteSpan b) {
        g_sink = g_sink + codec::xor_with_parent_scalar(b, parent)[0];
      }));
  emit_kernel_row("rle_encode", "entropy",
                  throughput_mb_s(entropy,
                                  [](util::ByteSpan b) {
                                    g_sink =
                                        g_sink + codec::rle_encode(b).size();
                                  }),
                  throughput_mb_s(entropy, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::rle_encode_scalar(b).size();
                  }));
  emit_kernel_row("rle_encode", "runny",
                  throughput_mb_s(runny,
                                  [](util::ByteSpan b) {
                                    g_sink =
                                        g_sink + codec::rle_encode(b).size();
                                  }),
                  throughput_mb_s(runny, [](util::ByteSpan b) {
                    g_sink = g_sink + codec::rle_encode_scalar(b).size();
                  }));

  // LZ decode regimes of a recovery: the all-zero XOR chunk of an
  // unchanged block, a chunk whose last quarter is zero (sparse
  // amplitudes), and an incompressible chunk (one literal run).
  constexpr std::size_t kChunk = 64 << 10;
  util::Bytes zero_tail = random_bytes(kChunk, 45);
  std::fill(zero_tail.begin() + kChunk * 3 / 4, zero_tail.end(), 0);
  emit_lz_decode_row("zeros", util::Bytes(kChunk, 0));
  emit_lz_decode_row("zero_tail", zero_tail);
  emit_lz_decode_row("entropy", random_bytes(kChunk, 46));

  // LZ encode regimes of an install: the same three chunks plus a
  // repeated motif with noise (many short matches).
  emit_lz_encode_row("zeros", util::Bytes(kChunk, 0));
  emit_lz_encode_row("zero_tail", zero_tail);
  emit_lz_encode_row("entropy", random_bytes(kChunk, 46));
  emit_lz_encode_row("motif", motif_bytes(kChunk, 47));
}

// --- concurrent dedup probes ------------------------------------------------

constexpr std::size_t kProbeChunks = 2048;
constexpr std::size_t kProbesPerThread = 200000;

void bench_probes() {
  io::MemEnv env;
  ckpt::ChunkStore store(env, "/bench");

  // Populate: one batch stores kProbeChunks distinct small chunks.
  std::vector<ckpt::ChunkKey> keys;
  keys.reserve(kProbeChunks);
  {
    auto batch = store.begin_batch(1);
    for (std::size_t i = 0; i < kProbeChunks; ++i) {
      const util::Bytes chunk = random_bytes(256, 1000 + i);
      const ckpt::ChunkKey key{util::crc32c(chunk), chunk.size()};
      keys.push_back(key);
      if (!batch->contains(key)) {
        batch->put(key, codec::CodecId::kRaw, chunk);
      }
    }
    batch->commit();
    store.publish(*batch);
  }

  std::printf("\n%-16s %10s %14s %10s\n", "dedup probes", "threads",
              "chunks/s", "scaling");
  bench::rule(56);
  double base = 0.0;
  for (const int threads : {1, 4, 8}) {
    util::Timer t;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&store, &keys, w] {
        // Every worker probes through its own batch (one batch is one
        // encoder's staging area; the STORE is the shared object).
        auto batch = store.begin_batch(100 + static_cast<std::uint64_t>(w));
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < kProbesPerThread; ++i) {
          // Stride by a per-thread odd step so threads touch shards in
          // different orders.
          const std::size_t idx =
              (i * (2 * static_cast<std::size_t>(w) + 3)) % keys.size();
          hits += batch->contains(keys[idx]) ? 1 : 0;
        }
        g_sink = g_sink + hits;
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    const double s = t.seconds();
    const double rate =
        s > 0.0 ? static_cast<double>(kProbesPerThread) * threads / s : 0.0;
    if (threads == 1) {
      base = rate;
    }
    const double scaling = base > 0.0 ? rate / base : 0.0;
    std::printf("%-16s %10d %14.0f %9.2fx\n", "", threads, rate, scaling);
    bench::JsonLine("t8")
        .field("metric", "dedup_probe")
        .field("threads", threads)
        .field("chunks_per_s", rate)
        .field("scaling_x", scaling)
        .field("hw_threads",
               static_cast<int>(std::thread::hardware_concurrency()))
        .field("gated", false)
        .emit();
  }
}

}  // namespace

int main() {
  bench::banner("T8", "hot-path raw throughput (SIMD kernels, sharded index)");
  std::printf("crc backend: %s (QNNCKPT_FORCE_SCALAR_CRC to force scalar)\n\n",
              util::crc_backend());
  bench_kernels();
  bench_probes();
  std::printf(
      "\nclaim check: the dispatched CRC/codec kernels beat the scalar\n"
      "oracles on SIMD hardware (speedup > 1; identical bytes either\n"
      "way), and dedup probe throughput scales with threads on the\n"
      "sharded index instead of serialising on one store mutex. Rows\n"
      "are gated:false — tracked as artifacts, never baseline-gated.\n");
  return 0;
}
