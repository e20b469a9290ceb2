// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --out RESULT.json [--trace-file TRACE.json]
//   perfbench --self-test
//
// Each workload is a closed loop: one trainer thread calls into the
// public API (Checkpointer::maybe_checkpoint, flush, recover_latest,
// load_checkpoint) and waits for every call to return. The program keeps
// its own thread pools. A run is
//   set-up (repeated; the median is setup_s), then a timed phase: write
//   rounds (trainer steps, then flush) followed by reads (recover_latest
//   alternating with load_checkpoint of the oldest retained entry). The
//   numbers of rounds and reads are fixed per workload and proportional
//   to --seconds, with at least kMinSamples checkpoints and kMinSamples
//   read samples of each kind. A read sample is the mean wall time of
//   read_batch consecutive calls.
// Every recovered or restored state is compared bit-exact with the
// generator's oracle (stategen.hpp).
//
// With --trace 1 the run makes an untraced pass and then a traced pass,
// each sized for half of --seconds. The traced pass shares one
// obs::Tracer between the benchmark's own spans, the program's spans and
// the BenchEnv decorator, and adds replayed calls (chunk_key, codec,
// crc32c) on the workload's own chunks. run.py turns the written trace
// into per-layer self times. See run.py for the metric definitions.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include "bench_env.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "io/prefix_env.hpp"
#include "obs/trace.hpp"
#include "stategen.hpp"
#include "tier/migration.hpp"
#include "tier/shaped_env.hpp"
#include "tier/tiered_env.hpp"
#include "util/crc.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace ckpt = qnn::ckpt;
namespace fs = std::filesystem;
using qnn::qnn::TrainingState;
using qnn::util::Bytes;

/// A tail percentile needs at least 10 samples beyond it; p90 of 110
/// samples has 11.
constexpr std::size_t kMinSamples = 110;
/// Checkpoints replayed through chunk_key/codec (the newest ones).
constexpr std::size_t kReplayCheckpoints = 8;
/// The --seconds a workload's `rounds` is sized for.
constexpr double kReferenceSeconds = 30;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  GenConfig gen;
  ckpt::CheckpointPolicy policy;
  bool tiered = false;
  int setups = 5;                  ///< set-ups per run (median = setup_s)
  std::uint64_t setup_steps = 1;   ///< steps taken during set-up
  std::size_t rounds = 0;          ///< write rounds at kReferenceSeconds
  std::size_t round_steps = 1;     ///< trainer steps per round
  std::size_t reads = 0;  ///< read samples of each kind at kReferenceSeconds
  /// Calls per read sample. Sub-millisecond reads are timed in batches,
  /// so that a timer read or a scheduler wake-up is not a sample's tail.
  std::size_t read_batch = 1;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.gen.seed = seed;
  w.policy.retention.keep_last = 3;
  if (name == "small-wal") {
    // ~50 KiB classical state; every section is under chunk_bytes.
    w.policy.strategy = ckpt::Strategy::kParamsOnly;
    w.policy.every_steps = 16;
    w.policy.wal.enable = true;
    // Set-up ends 11 steps past its install and rounds are 16 steps, so
    // every recovery replays a journal of 11 records.
    w.setup_steps = 12;
    w.rounds = 750;
    w.round_steps = 16;
    w.reads = 1100;
    w.read_batch = 8;
    w.setups = 101;
  } else if (name == "large-drift") {
    // 4 MiB, not 32 MiB: restoring incompressible chunks streams the
    // state through memory, and on a shared host the speed of that
    // follows other tenants' memory traffic. Back-to-back runs of
    // 32 MiB restores moved 23-37 ms (10-run IQR/median up to 0.26,
    // past the 0.25 bound); 8 MiB moved 5.3-7.0 ms and 4 MiB
    // 2.8-3.2 ms over the same minutes.
    w.gen.sim_bytes = std::size_t{4} << 20;
    w.gen.chunk_bytes = std::size_t{64} << 10;
    w.policy.strategy = ckpt::Strategy::kFullState;
    w.policy.chunk_bytes = w.gen.chunk_bytes;
    w.policy.every_steps = 1;
    w.policy.async = true;
    // 448 checkpoints: how many chunks concurrent batches write twice
    // varies per checkpoint, and at 8 new chunks per step one extra
    // chunk is a tenth of a checkpoint's bytes.
    w.rounds = 112;
    w.round_steps = 4;
    // ~20 s of reads, so that run medians average over the seconds-scale
    // speed drift of the host.
    w.reads = 2240;
    w.setups = 31;
  } else if (name == "recover-tiered") {
    // 64 chunks per state and a depth-7 delta chain, as at 16 MiB with
    // 256 KiB chunks, at a size that fits kMinSamples recoveries in a
    // run. A quarter of each chunk is zero (sparse amplitudes).
    w.gen.sim_bytes = std::size_t{4} << 20;
    w.gen.chunk_bytes = std::size_t{64} << 10;
    w.gen.zero_frac = 0.25;
    w.policy.strategy = ckpt::Strategy::kIncremental;
    w.policy.full_every = 8;
    w.policy.chunk_bytes = w.gen.chunk_bytes;
    w.policy.every_steps = 1;
    w.policy.retention.keep_last = 24;
    w.policy.tier.hot_byte_budget = 3 * w.gen.sim_bytes;
    w.policy.tier.pin_hot_last = 2;
    w.tiered = true;
    w.setup_steps = 24;
    // Rounds of full_every steps, so the newest entry is always the
    // depth-7 tip of a chain and the oldest retained one a full.
    w.rounds = 40;
    w.round_steps = 8;
    // Two windows of read samples (see add_percentiles).
    w.reads = 220;
    w.setups = 15;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Storage stack
// ---------------------------------------------------------------------------

/// PosixEnv(durable) -> BenchEnv, plus for tiered workloads
/// PrefixEnv(hot|cold) -> ShapedEnv(local_nvme|object_store) -> TieredEnv.
class Storage {
 public:
  Storage(const std::string& root, bool tiered, qnn::obs::Tracer* tracer)
      : root_(root),
        bench_(posix_, tracer, tiered ? root + "/cold/" : std::string()) {
    if (tiered) {
      hot_root_ = std::make_unique<io::PrefixEnv>(bench_, root + "/hot");
      cold_root_ = std::make_unique<io::PrefixEnv>(bench_, root + "/cold");
      hot_ = std::make_unique<qnn::tier::ShapedEnv>(
          *hot_root_, qnn::tier::local_nvme_shape());
      cold_ = std::make_unique<qnn::tier::ShapedEnv>(
          *cold_root_, qnn::tier::object_store_shape());
      tiered_ = std::make_unique<qnn::tier::TieredEnv>(
          *hot_, *cold_, /*promote_on_read=*/false,
          qnn::tier::migratable_path);
    }
  }

  io::Env& env() { return tiered_ ? static_cast<io::Env&>(*tiered_) : bench_; }
  BenchEnv& bench() { return bench_; }
  /// The checkpoint directory as the program sees it.
  [[nodiscard]] std::string dir() const {
    return tiered_ ? "ckpt" : root_ + "/ckpt";
  }
  [[nodiscard]] double hot_device_s() const {
    return hot_ ? hot_->modeled_seconds() : 0.0;
  }
  [[nodiscard]] double cold_device_s() const {
    return cold_ ? cold_->modeled_seconds() : 0.0;
  }
  /// Bytes of every file under the workload root (both tiers). Files
  /// the async pipeline removes during the walk are skipped.
  [[nodiscard]] std::uint64_t stored_bytes() const {
    std::uint64_t n = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root_, ec), end;
         !ec && it != end; it.increment(ec)) {
      std::error_code fec;
      const std::uintmax_t size = it->file_size(fec);
      if (!fec && it->is_regular_file(fec)) {
        n += size;
      }
    }
    return n;
  }

 private:
  std::string root_;
  io::PosixEnv posix_{/*durable=*/true};
  BenchEnv bench_;
  std::unique_ptr<io::PrefixEnv> hot_root_, cold_root_;
  std::unique_ptr<qnn::tier::ShapedEnv> hot_, cold_;
  std::unique_ptr<qnn::tier::TieredEnv> tiered_;
};

/// One set-up: a fresh directory, its Storage and Checkpointer, and the
/// trainer's live state. Members are destroyed in reverse order, so the
/// Checkpointer flushes before its Env goes.
struct Session {
  std::string root;
  std::unique_ptr<Storage> storage;
  std::unique_ptr<ckpt::Checkpointer> ckpt;
  TrainingState state;
  std::uint64_t last_id = 0;
  std::map<std::uint64_t, std::uint64_t> id_step;  ///< every checkpoint
};

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile of `v` (sorted in place).
double percentile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Median of `v` (sorted in place); the mean of the middle two when
/// their number is even.
double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Adds NAME.p50 and NAME.p90 of `ms` (in the order measured). p90 is
/// reported only with >= 10 samples beyond it. When there are enough
/// samples, the phase is cut into consecutive windows of at least
/// kMinSamples and p90 is the median of the windows' p90s: a burst of
/// load from outside the program that covers less than half the phase
/// then does not set the tail.
void add_percentiles(Metrics& m, const std::string& name,
                     std::vector<double> ms) {
  if (ms.empty()) {
    return;
  }
  const std::size_t windows =
      std::max<std::size_t>(1, ms.size() / kMinSamples);
  const auto per = static_cast<std::ptrdiff_t>(ms.size() / windows);
  std::vector<double> p90s;
  for (auto first = ms.begin(); p90s.size() < windows; first += per) {
    std::vector<double> win(first, first + per);
    const double p90 = percentile(win, 0.90);
    const auto beyond = static_cast<std::size_t>(
        win.end() - std::upper_bound(win.begin(), win.end(), p90));
    if (beyond < 10) {
      break;
    }
    p90s.push_back(p90);
  }
  m[name + ".p50"] = {percentile(ms, 0.50), "ms", ms.size()};
  if (p90s.size() == windows) {
    m[name + ".p90"] = {median(p90s), "ms", ms.size()};
  }
}

/// Commits the filesystem holding `dir`, so that work left by earlier
/// runs and set-ups (dirty pages, journal commits, the discards of
/// deleted files on a discard-mounted filesystem) is not charged to the
/// next timed call.
void settle(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// ---------------------------------------------------------------------------
// Replays: the layer work inside encode and recovery, on the workload's
// own chunks
// ---------------------------------------------------------------------------

struct Piece {
  bool chunk = false;  ///< part of a section over chunk_bytes
  Bytes raw;
};

/// The payloads the program encodes for checkpoint `step`: sections of
/// the state (XOR-delta against `parent_step` when given), with sections
/// over chunk_bytes cut into chunks.
std::vector<Piece> pieces(const Workload& w, const StateGen& gen,
                          std::uint64_t step,
                          std::optional<std::uint64_t> parent_step) {
  const bool sim = w.policy.strategy != ckpt::Strategy::kParamsOnly;
  auto sections = ckpt::state_to_sections(gen.state_at(step), sim,
                                          w.policy.codec);
  if (parent_step) {
    const auto parent = ckpt::state_to_sections(gen.state_at(*parent_step),
                                                sim, w.policy.codec);
    for (auto& s : sections) {
      for (const auto& p : parent) {
        if (p.kind == s.kind) {
          s.payload = qnn::codec::xor_with_parent(s.payload, p.payload);
        }
      }
    }
  }
  std::vector<Piece> out;
  const std::size_t cb = w.policy.chunk_bytes;
  for (auto& s : sections) {
    if (s.payload.size() <= cb) {
      out.push_back({false, std::move(s.payload)});
      continue;
    }
    for (std::size_t off = 0; off < s.payload.size(); off += cb) {
      const auto end = std::min(s.payload.size(), off + cb);
      out.push_back({true, Bytes(s.payload.begin() + off,
                                 s.payload.begin() + end)});
    }
  }
  return out;
}

bool is_full(const Workload& w, std::uint64_t id) {
  return w.policy.strategy != ckpt::Strategy::kIncremental ||
         (id - 1) % w.policy.full_every == 0;
}

std::vector<Piece> checkpoint_pieces(const Workload& w, const StateGen& gen,
                                     const Session& s, std::uint64_t id) {
  std::optional<std::uint64_t> parent;
  if (!is_full(w, id)) {
    parent = s.id_step.at(id - 1);
  }
  return pieces(w, gen, s.id_step.at(id), parent);
}

/// Every piece a load of checkpoint `id` resolves: its whole chain.
std::vector<Piece> chain_pieces(const Workload& w, const StateGen& gen,
                                const Session& s, std::uint64_t id) {
  std::uint64_t root = id;
  while (!is_full(w, root)) {
    --root;
  }
  std::vector<Piece> out;
  for (std::uint64_t link = root; link <= id; ++link) {
    auto p = checkpoint_pieces(w, gen, s, link);
    std::move(p.begin(), p.end(), std::back_inserter(out));
  }
  return out;
}

/// Keeps replayed results observable so they are not optimised away.
volatile std::uint32_t g_sink = 0;

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    f();
    v.push_back(ms_since(t0));
  }
  return percentile(v, 0.5);
}

void replay(const Workload& w, const StateGen& gen, const Session& s,
            std::uint64_t latest_id, qnn::obs::Tracer* tracer, Metrics& m) {
  const auto codec = w.policy.codec;
  // Write side: the last kReplayCheckpoints checkpoints. Every chunk is
  // keyed; inline sections and chunks new since the previous checkpoint
  // are compressed (what dedup leaves to the codec).
  double key_ms = 0, enc_ms = 0, raw_bytes = 0, enc_bytes = 0;
  std::size_t n = 0;
  for (std::uint64_t id = latest_id;
       id > 1 && n < kReplayCheckpoints && s.id_step.count(id - 1) != 0;
       --id, ++n) {
    const auto cur = checkpoint_pieces(w, gen, s, id);
    std::set<ckpt::ChunkKey> prev_keys;
    for (const auto& p : checkpoint_pieces(w, gen, s, id - 1)) {
      if (p.chunk) {
        prev_keys.insert(ckpt::chunk_key(p.raw));
      }
    }
    std::vector<ckpt::ChunkKey> keys;
    {
      qnn::obs::Span span(tracer, "replay.chunk_key", "replay");
      const std::uint64_t t0 = now_ns();
      for (const auto& p : cur) {
        if (p.chunk) {
          keys.push_back(ckpt::chunk_key(p.raw));
        }
      }
      key_ms += ms_since(t0);
    }
    qnn::obs::Span span(tracer, "replay.codec.encode", "replay");
    std::size_t k = 0;
    for (const auto& p : cur) {
      if (p.chunk && prev_keys.count(keys[k++]) != 0) {
        continue;
      }
      const std::uint64_t t0 = now_ns();
      const Bytes e = qnn::codec::encode(codec, p.raw);
      enc_ms += ms_since(t0);
      raw_bytes += static_cast<double>(p.raw.size());
      enc_bytes += static_cast<double>(e.size());
    }
  }
  const double nd = std::max<double>(1, static_cast<double>(n));
  m["format.chunk_key_ms"] = {key_ms / nd, "ms", n};
  m["codec.encode_ms"] = {enc_ms / nd, "ms", n};
  m["codec.ratio"] = {enc_bytes > 0 ? raw_bytes / enc_bytes : 0.0, "ratio", n};

  // Read side, per recover_latest: decode and CRC32C-verify every piece
  // of the chain it resolves (median of 5 replays).
  const auto chain = chain_pieces(w, gen, s, latest_id);
  std::vector<Bytes> encoded;
  double verify_bytes = 0;
  for (const auto& p : chain) {
    encoded.push_back(qnn::codec::encode(codec, p.raw));
    verify_bytes += static_cast<double>(p.raw.size());
  }
  {
    qnn::obs::Span span(tracer, "replay.codec.decode", "replay");
    m["codec.decode_ms"] = {median_ms(5,
                                      [&] {
                                        for (std::size_t i = 0;
                                             i < chain.size(); ++i) {
                                          qnn::codec::decode(
                                              codec, encoded[i],
                                              chain[i].raw.size());
                                        }
                                      }),
                            "ms", 5};
  }
  {
    qnn::obs::Span span(tracer, "replay.crc32c", "replay");
    m["crc.verify_ms"] = {median_ms(5,
                                    [&] {
                                      for (const auto& p : chain) {
                                        g_sink = g_sink ^
                                                 qnn::util::crc32c(p.raw);
                                      }
                                    }),
                          "ms", 5};
    m["crc.verify_bytes"] = {verify_bytes, "B", 1};
  }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct PassResult {
  Metrics e2e;
  Metrics write;  ///< write-path timings (per-layer, ungated)
  Metrics layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> errors;
};

class Runner {
 public:
  Runner(Workload w, std::string workdir)
      : w_(std::move(w)), gen_(w_.gen), workdir_(std::move(workdir)) {}

  PassResult pass(double seconds, qnn::obs::Tracer* tracer,
                  const std::string& tag) {
    PassResult r;
    tracer_ = tracer;
    // Set-up, repeated; the last one is kept for the timed phase. The
    // trainer's initial state is built outside the timed set-up.
    const TrainingState first = gen_.state_at(1);
    std::vector<double> setup_s;
    std::unique_ptr<Session> s;
    for (int i = 0; i < w_.setups; ++i) {
      if (s) {
        const std::string done = s->root;
        s.reset();
        fs::remove_all(done);
      }
      const std::string root =
          workdir_ + "/" + tag + "-setup" + std::to_string(i);
      fs::remove_all(root);
      fs::create_directories(root);
      settle(root);
      TrainingState state = first;
      qnn::obs::Span span(tracer_, "bench.setup", "bench");
      const std::uint64_t t0 = now_ns();
      s = setup(root, std::move(state), r);
      setup_s.push_back(ms_since(t0) / 1e3);
    }
    r.e2e["setup_s"] = {percentile(setup_s, 0.5), "s", setup_s.size()};
    if (r.errors.empty()) {
      settle(s->root);
      qnn::obs::Span timed(tracer_, "bench.timed", "bench");
      timed_phase(*s, scaled(w_.rounds, seconds, ckpt_floor()),
                  scaled(w_.reads, seconds, kMinSamples), r);
      timed.finish();
      if (tracer_ != nullptr && r.errors.empty()) {
        replay(w_, gen_, *s, s->last_id, tracer_, r.layer);
      }
    }
    const std::string root = s->root;
    s.reset();
    fs::remove_all(root);
    return r;
  }

 private:
  /// `n` scaled from the reference run to a run of `seconds`, and never
  /// below `floor`.
  static std::size_t scaled(std::size_t n, double seconds,
                            std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(std::llround(
                               static_cast<double>(n) * seconds /
                               kReferenceSeconds)));
  }

  /// Write rounds that produce at least kMinSamples checkpoints.
  [[nodiscard]] std::size_t ckpt_floor() const {
    const std::size_t per_round =
        std::max<std::size_t>(1, w_.round_steps / w_.policy.every_steps);
    return (kMinSamples + per_round - 1) / per_round;
  }

  std::unique_ptr<Session> setup(const std::string& root, TrainingState state,
                                 PassResult& r) {
    auto s = std::make_unique<Session>();
    s->root = root;
    s->state = std::move(state);
    s->storage = std::make_unique<Storage>(root, w_.tiered, tracer_);
    ckpt::CheckpointPolicy policy = w_.policy;
    policy.tracer = tracer_;
    try {
      s->ckpt = std::make_unique<ckpt::Checkpointer>(s->storage->env(),
                                                     s->storage->dir(), policy);
      s->ckpt->checkpoint_now(s->state);
      s->id_step[++s->last_id] = 1;
      for (std::uint64_t step = 2; step <= w_.setup_steps; ++step) {
        gen_.advance(s->state, step);
        if (s->ckpt->maybe_checkpoint(s->state)) {
          s->id_step[++s->last_id] = step;
        }
      }
      s->ckpt->flush();
    } catch (const std::exception& e) {
      r.errors.push_back(std::string("set-up: ") + e.what());
    }
    return s;
  }

  /// Everything the timed phase records.
  struct Samples {
    std::vector<double> stall_ms, durable_ms, stored, recover_ms, restore_ms;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> produced;  // id, t0
    double raw_bytes = 0;
    double write_s = 0;  ///< in maybe_checkpoint and flush only
    std::size_t steps = 0;
    IoCounts write_io, read_io;
    double rec_read = 0, rec_hot = 0, rec_cold = 0, res_hot = 0,
           res_cold = 0, depth = 0, candidates = 0, wal_records = 0,
           state_bytes = 0;
    std::uint64_t rec_pack_opens = 0;
    std::size_t recovers = 0, restores = 0;  ///< calls, not samples
  };

  /// `n` write blocks (round_steps steps, then flush), then the read
  /// phase (`reads` samples each of recover_latest and load_checkpoint).
  /// Reads run after all writes: interleaved with the write path's
  /// fsyncs they pick up its disk noise.
  void timed_phase(Session& s, std::size_t n, std::size_t reads,
                   PassResult& r) {
    Samples x;
    BenchEnv& bench = s.storage->bench();
    try {
      const IoCounts w0 = bench.counts();
      for (std::size_t round = 0; round < n && r.errors.empty(); ++round) {
        write_block(s, 2 * round >= n, x, r);
      }
      x.write_io = bench.counts() - w0;
      settle(s.root);
      const IoCounts r0 = bench.counts();
      read_phase(s, reads, x, r);
      x.read_io = bench.counts() - r0;
    } catch (const std::exception& e) {
      ++r.failed;
      r.errors.push_back(std::string("timed phase: ") + e.what());
    }
    for (const auto& [id, t0] : x.produced) {
      if (const auto t = bench.first_listed_ns(id)) {
        x.durable_ms.push_back(static_cast<double>(*t - t0) / 1e6);
      } else {
        ++r.failed;
        r.errors.push_back("checkpoint " + std::to_string(id) +
                           " was never listed by a MANIFEST install");
      }
    }
    if (!r.errors.empty()) {
      return;
    }
    const std::size_t ckpts = x.produced.size();
    add_percentiles(r.e2e, "recover_ms", x.recover_ms);
    add_percentiles(r.e2e, "restore_oldest_ms", x.restore_ms);
    // The write path's latencies are fsync-bound; see run.py for why they
    // are reported but not gated.
    add_percentiles(r.write, "checkpointer.stall_ms", x.stall_ms);
    add_percentiles(r.write, "checkpointer.durable_ms", x.durable_ms);
    r.write["checkpointer.mb_per_s"] = {x.raw_bytes / 1e6 / x.write_s, "MB/s",
                                        x.steps};
    r.e2e["written_bytes_per_ckpt"] = {
        static_cast<double>(x.write_io.written()) / static_cast<double>(ckpts),
        "B", ckpts};
    r.e2e["stored_bytes_per_ckpt"] = {percentile(x.stored, 0.5), "B",
                                      x.stored.size()};
    write_layer_metrics(x.write_io, ckpts, x.steps, r.layer);
    read_layer_metrics(x, r.layer);
  }

  void write_block(Session& s, bool steady, Samples& x, PassResult& r) {
    BenchEnv& bench = s.storage->bench();
    for (std::size_t i = 0; i < w_.round_steps; ++i) {
      const std::uint64_t step = s.state.step + 1;
      gen_.advance(s.state, step);
      qnn::obs::Span span(tracer_, "bench.maybe_checkpoint", "bench");
      ++r.attempted;
      const std::uint64_t t0 = now_ns();
      const bool did = s.ckpt->maybe_checkpoint(s.state);
      x.stall_ms.push_back(ms_since(t0));
      x.write_s += x.stall_ms.back() / 1e3;
      span.note("checkpoint", did ? 1 : 0);
      span.finish();
      ++x.steps;
      x.raw_bytes += static_cast<double>(s.state.component_sizes().total());
      if (did) {
        s.id_step[++s.last_id] = step;
        x.produced.emplace_back(s.last_id, t0);
        // Bytes on disk per listed checkpoint, in the second half only
        // (steady state).
        if (steady) {
          x.stored.push_back(static_cast<double>(s.storage->stored_bytes()) /
                             static_cast<double>(bench.listed_count()));
        }
      }
    }
    qnn::obs::Span span(tracer_, "bench.flush", "bench");
    const std::uint64_t t0 = now_ns();
    s.ckpt->flush();
    x.write_s += ms_since(t0) / 1e3;
    span.finish();
  }

  void read_phase(Session& s, std::size_t samples, Samples& x,
                  PassResult& r) {
    BenchEnv& bench = s.storage->bench();
    io::Env& env = s.storage->env();
    const std::string dir = s.storage->dir();
    ckpt::Manifest manifest;
    {
      qnn::obs::Span span(tracer_, "bench.manifest_load", "bench");
      manifest = ckpt::Manifest::load(env, dir);
    }
    if (manifest.entries().empty()) {
      throw std::runtime_error("empty manifest");
    }
    const ckpt::ManifestEntry oldest = manifest.entries().front();
    const TrainingState want_latest = gen_.state_at(s.state.step);
    const TrainingState want_oldest = gen_.state_at(oldest.step);
    x.state_bytes = static_cast<double>(want_latest.component_sizes().total());
    ckpt::RecoveryOptions opts;
    opts.tracer = tracer_;
    const auto check = [&](bool ok, const std::string& what) {
      if (!ok) {
        ++r.failed;
        ++r.mismatches;
        r.errors.push_back(what + " is not bit-exact with the oracle");
      }
    };
    const auto batch = static_cast<double>(w_.read_batch);
    for (std::size_t i = 0; i < samples && r.errors.empty(); ++i) {
      double sum_ms = 0;
      for (std::size_t k = 0; k < w_.read_batch; ++k) {
        const IoCounts b0 = bench.counts();
        const double h0 = s.storage->hot_device_s();
        const double c0 = s.storage->cold_device_s();
        ++r.attempted;
        qnn::obs::Span span(tracer_, "bench.recover_latest", "bench");
        const std::uint64_t t0 = now_ns();
        const auto out = ckpt::recover_latest(env, dir, opts);
        sum_ms += ms_since(t0);
        span.finish();
        ++x.recovers;
        const IoCounts b = bench.counts() - b0;
        x.rec_read += static_cast<double>(b.read());
        x.rec_pack_opens += b.cls[kPack].opens;
        x.rec_hot += s.storage->hot_device_s() - h0;
        x.rec_cold += s.storage->cold_device_s() - c0;
        check(out.has_value() && out->state == want_latest, "recover_latest");
        if (out) {
          for (const auto& e : out->events) {
            if (e.name == "chain.resolved") {
              x.depth += std::stod(e.value("depth"));
            } else if (e.name == "candidate.try") {
              x.candidates += 1;
            } else if (e.name == "wal.replay") {
              x.wal_records += std::stod(e.value("records"));
            }
          }
        }
      }
      x.recover_ms.push_back(sum_ms / batch);
      sum_ms = 0;
      for (std::size_t k = 0; k < w_.read_batch; ++k) {
        const double h0 = s.storage->hot_device_s();
        const double c0 = s.storage->cold_device_s();
        ++r.attempted;
        qnn::obs::Span span(tracer_, "bench.load_checkpoint", "bench");
        const std::uint64_t t0 = now_ns();
        const TrainingState got =
            ckpt::load_checkpoint(env, dir, oldest.id, opts);
        sum_ms += ms_since(t0);
        span.finish();
        ++x.restores;
        x.res_hot += s.storage->hot_device_s() - h0;
        x.res_cold += s.storage->cold_device_s() - c0;
        check(got == want_oldest,
              "load_checkpoint(" + std::to_string(oldest.id) + ")");
      }
      x.restore_ms.push_back(sum_ms / batch);
    }
  }

  /// Read-side layer metrics, per read operation unless stated.
  static void read_layer_metrics(const Samples& x, Metrics& m) {
    const IoCounts& io = x.read_io;
    const std::size_t nrec = x.recovers;
    const std::size_t nres = x.restores;
    const std::size_t nops = nrec + nres;
    const auto per = [](double v, std::size_t n) {
      return n > 0 ? v / static_cast<double>(n) : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m["recovery.chain_depth"] = {per(x.depth, nrec), "count", nrec};
    m["recovery.candidates_tried"] = {per(x.candidates, nrec), "count", nrec};
    m["recovery.wal_records_replayed"] = {per(x.wal_records, nrec), "count",
                                          nrec};
    m["recovery.read_amp"] = {per(x.rec_read / x.state_bytes, nrec), "ratio",
                              nrec};
    m["recovery.recover_device_s"] = {per(x.rec_hot + x.rec_cold, nrec), "s",
                                      nrec};
    m["recovery.restore_device_s"] = {per(x.res_hot + x.res_cold, nres), "s",
                                      nres};
    m["tier.hot_device_s"] = {per(x.rec_hot + x.res_hot, nops), "s", nops};
    m["tier.cold_device_s"] = {per(x.rec_cold + x.res_cold, nops), "s", nops};
    m["tier.cold_reads"] = {per(d(io.cold_reads), nops), "count", nops};
    m["tier.cold_read_bytes"] = {per(d(io.cold_read_bytes), nops), "B", nops};
    m["cas.packs_per_recover"] = {per(d(x.rec_pack_opens), nrec), "count",
                                  nrec};
    m["manifest.load_ms"] = {per(d(io.cls[kManifest].read_ns) / 1e6, nops),
                             "ms", nops};
    for (std::size_t c = 0; c < kClassCount - 1; ++c) {
      const auto& k = io.cls[c];
      const std::string p = std::string("io.") + kClassNames[c];
      m[p + ".preads"] = {per(d(k.preads), nops), "count", nops};
      m[p + ".read_bytes"] = {per(d(k.read_bytes), nops), "B", nops};
      m[p + ".read_ms"] = {per(d(k.read_ns) / 1e6, nops), "ms", nops};
    }
  }

  /// Write-side layer metrics, per checkpoint unless stated.
  static void write_layer_metrics(const IoCounts& io, std::size_t ckpts,
                                  std::size_t steps, Metrics& m) {
    const double n = static_cast<double>(std::max<std::size_t>(ckpts, 1));
    const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    const auto& con = io.cls[kContainer];
    const auto& pack = io.cls[kPack];
    const auto& man = io.cls[kManifest];
    const auto& wal = io.cls[kWal];
    m["format.container_bytes"] = {
        con.installs ? d(con.write_bytes) / d(con.installs) : 0.0, "B",
        con.installs};
    m["cas.chunk_refs"] = {d(io.chunk_refs) / n, "count", ckpts};
    m["cas.chunks_written"] = {d(io.chunks_written) / n, "count", ckpts};
    m["cas.dedup_hit_ratio"] = {
        io.chunk_refs ? 1.0 - d(io.chunks_written) / d(io.chunk_refs) : 0.0,
        "ratio", ckpts};
    m["cas.pack_bytes_per_ckpt"] = {d(pack.write_bytes) / n, "B", ckpts};
    m["cas.packs_deleted"] = {d(pack.removes) / n, "count", ckpts};
    m["gc.removes"] = {d(con.removes + pack.removes + wal.removes) / n,
                       "count", ckpts};
    m["manifest.installs"] = {d(man.installs) / n, "count", ckpts};
    m["manifest.install_ms"] = {
        man.installs ? d(man.write_ns()) / 1e6 / d(man.installs) : 0.0, "ms",
        man.installs};
    m["manifest.bytes"] = {
        man.installs ? d(man.write_bytes) / d(man.installs) : 0.0, "B",
        man.installs};
    const double ns = static_cast<double>(std::max<std::size_t>(steps, 1));
    m["wal.appends"] = {d(wal.appends) / ns, "count", steps};
    m["wal.bytes_per_record"] = {
        wal.appends ? d(wal.write_bytes) / d(wal.appends) : 0.0, "B",
        wal.appends};
    m["wal.syncs"] = {d(wal.syncs) / ns, "count", steps};
    m["wal.append_ms"] = {
        wal.appends ? d(wal.append_ns) / 1e6 / d(wal.appends) : 0.0, "ms",
        wal.appends};
    m["wal.sync_ms"] = {wal.syncs ? d(wal.sync_ns) / 1e6 / d(wal.syncs) : 0.0,
                        "ms", wal.syncs};
    m["io.flushes"] = {d(io.flushes()) / n, "count", ckpts};
    m["io.meta_ops"] = {d(io.meta_ops) / n, "count", ckpts};
    m["io.meta_ms"] = {d(io.meta_ns) / 1e6 / n, "ms", ckpts};
    for (std::size_t c = 0; c < kClassCount - 1; ++c) {
      const auto& k = io.cls[c];
      const std::string p = std::string("io.") + kClassNames[c];
      m[p + ".write_bytes"] = {d(k.write_bytes) / n, "B", ckpts};
      m[p + ".installs"] = {d(k.installs) / n, "count", ckpts};
      m[p + ".syncs"] = {d(k.syncs) / n, "count", ckpts};
      m[p + ".write_ms"] = {d(k.write_ns()) / 1e6 / n, "ms", ckpts};
    }
  }

  Workload w_;
  StateGen gen_;
  std::string workdir_;
  qnn::obs::Tracer* tracer_ = nullptr;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_str(const std::string& s) {
  return qnn::obs::Tracer::json_string(s);
}

std::string json_num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, x] : m) {
    os << (first ? "" : ",") << json_str(name) << ":{\"value\":"
       << json_num(x.value) << ",\"unit\":" << json_str(x.unit)
       << ",\"samples\":" << x.samples << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string pass_json(const PassResult& p) {
  std::ostringstream os;
  os << "{\"attempted\":" << p.attempted << ",\"failed\":" << p.failed
     << ",\"mismatches\":" << p.mismatches
     << ",\"e2e\":" << metrics_json(p.e2e)
     << ",\"write\":" << metrics_json(p.write)
     << ",\"layer\":" << metrics_json(p.layer) << ",\"errors\":[";
  for (std::size_t i = 0; i < p.errors.size() && i < 20; ++i) {
    os << (i ? "," : "") << json_str(p.errors[i]);
  }
  os << "]}";
  return os.str();
}

std::string context_json() {
  const char* threads = std::getenv("QNNCKPT_THREADS");
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"pool_threads\":" << qnn::util::ThreadPool::default_thread_count()
     << ",\"QNNCKPT_THREADS\":" << json_str(threads ? threads : "")
     << ",\"crc_backend\":" << json_str(qnn::util::crc_backend())
     << ",\"compiler\":" << json_str(std::string("gcc ") + __VERSION__)
     << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
     << ",\"flush_policy\":\"PosixEnv(durable=true)\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Generator self-test
// ---------------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  GenConfig cfg;
  cfg.n_params = 64;
  cfg.perm_size = 16;
  cfg.sim_bytes = 64 * 1024;
  cfg.chunk_bytes = 4096;
  cfg.zero_frac = 0.25;
  cfg.seed = 7;
  const StateGen a(cfg), a2(cfg);
  GenConfig other = cfg;
  other.seed = 8;
  const StateGen b(other);
  expect(a.state_at(40) == a2.state_at(40), "one seed gives identical bytes twice");
  const auto sa = a.state_at(40), sb = b.state_at(40);
  expect(sa.params != sb.params && sa.simulator_state != sb.simulator_state &&
             sa.optimizer_state != sb.optimizer_state,
         "two seeds give different bytes");
  TrainingState st = a.state_at(1);
  bool chained = true;
  std::size_t changed = 0;
  for (std::uint64_t s = 2; s <= 40; ++s) {
    const Bytes before = st.simulator_state;
    a.advance(st, s);
    chained = chained && st == a.state_at(s);
    for (std::size_t c = 0; c < a.n_chunks(); ++c) {
      changed += std::memcmp(before.data() + c * cfg.chunk_bytes,
                             st.simulator_state.data() + c * cfg.chunk_bytes,
                             cfg.chunk_bytes) != 0;
    }
  }
  expect(chained, "advance() agrees with the oracle state_at()");
  expect(changed == 39 * a.n_chunks() / 8,
         "each step rewrites exactly rewrite_frac of the chunks");
  expect(st.loss_history.size() == 40, "loss history grows by one per step");
  const auto z = st.simulator_state.begin() + cfg.chunk_bytes - 1024;
  expect(std::all_of(z, z + 1024, [](std::uint8_t x) { return x == 0; }),
         "zero_frac of each chunk is zero");
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      return self_test();
    }
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                   "--trace 0|1 --workdir D --out F [--trace-file T]\n";
      return 2;
    }
    args[a.substr(2)] = argv[++i];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "workdir",
                        "out"}) {
    if (args.count(k) == 0) {
      std::cerr << "perfbench: missing --" << k << "\n";
      return 2;
    }
  }
  const Workload w =
      make_workload(args["workload"], std::stoull(args["seed"]));
  const double seconds = std::stod(args["seconds"]);
  const bool traced = args["trace"] == "1";
  fs::create_directories(args["workdir"]);
  Runner runner(w, args["workdir"]);

  std::vector<std::string> passes;
  bool ok = true;
  // The untraced pass gives the end-to-end numbers; with --trace 1 a
  // traced pass follows and the ratio of the two is the tracing cost.
  const double pass_s = traced ? seconds / 2 : seconds;
  const PassResult plain = runner.pass(pass_s, nullptr, "plain");
  passes.push_back(pass_json(plain));
  ok = ok && plain.errors.empty();
  if (traced && ok) {
    qnn::obs::Tracer tracer;
    const PassResult t = runner.pass(pass_s, &tracer, "traced");
    passes.push_back(pass_json(t));
    ok = ok && t.errors.empty();
    if (args.count("trace-file") != 0) {
      tracer.write(args["trace-file"]);
    }
  }
  std::ofstream out(args["out"]);
  out << "{\"workload\":" << json_str(w.name) << ",\"context\":"
      << context_json() << ",\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    out << (i ? "," : "") << passes[i];
  }
  out << "]}\n";
  out.close();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every allocation comes from malloc's heaps, which are never trimmed,
  // so a multi-MiB buffer reuses pages the process already holds. With
  // glibc's defaults, buffers of 32 MiB and up (and smaller ones,
  // depending on the allocation history) are fresh mappings that
  // page-fault on first touch. On a virtual machine that hands freed
  // pages back to its host those faults cost more than the restore
  // itself (a 32 MiB full-state restore took 98 ms with them and
  // 27-33 ms without) and follow the host's memory pressure, which
  // drifts 2x within minutes, so they would bury the program's own time.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
