// Tests for the content-addressed chunk store (format v3): cross-
// checkpoint dedup, refcounted GC over chunk keys, packfile sweeps and
// compaction, the REFS journal, and recovery behaviour when packfiles
// are damaged.
//
// Every object that owns a mutex (MemEnv, ChunkStore, Checkpointer,
// CheckpointStore) is heap-allocated here. libstdc++'s std::mutex has a
// trivial destructor, so ThreadSanitizer is never told that a stack
// mutex died: a later test's mutex at the same stack address inherits
// its lock-order history, and the deadlock detector then reports a
// cycle between unrelated objects. free() does reset that history.
// This only covers the mutexes the tests own: load_checkpoint and
// recover_latest still build their ChunkStore on the stack, so two of
// those library frames can alias each other across tests in the same
// way. A TSan lock-order report naming such a ChunkStore::mu_ is that
// known limit, not a regression of the heap allocation here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <condition_variable>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "ckpt/cas.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/verify.hpp"
#include "io/fault_env.hpp"
#include "io/mem_env.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qnn::ckpt {
namespace {

/// A state whose params section is large (so it externalises at small
/// chunk sizes) and mostly frozen across steps: only the last
/// `moving_doubles` values depend on the step.
qnn::TrainingState big_state(std::uint64_t step, std::size_t n_params = 2048,
                             std::size_t moving_doubles = 8) {
  qnn::TrainingState s;
  s.step = step;
  s.params.resize(n_params);
  util::Rng frozen(7);
  for (double& p : s.params) {
    p = frozen.uniform(-1.0, 1.0);
  }
  util::Rng moving(1000 + step);
  for (std::size_t i = n_params - moving_doubles; i < n_params; ++i) {
    s.params[i] = moving.uniform(-1.0, 1.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.assign(64, static_cast<std::uint8_t>(step & 0xFF));
  s.rng_state = util::Rng(step).serialize();
  s.epoch = step / 4;
  s.cursor = step % 4;
  s.permutation = {0, 1, 2};
  s.workload_tag = "vqe";
  return s;
}

CheckpointPolicy cas_policy() {
  CheckpointPolicy policy;
  policy.strategy = Strategy::kFullState;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;  // keep everything unless a test says so
  policy.codec = codec::CodecId::kRaw;
  policy.chunk_bytes = 1024;  // params (2048 doubles + u64) externalises
  return policy;
}

std::uint64_t dir_stored_bytes(io::MemEnv& env, const std::string& dir) {
  std::uint64_t total = 0;
  for (const std::string& name : env.list_dir(dir)) {
    total += env.file_size(dir + "/" + name).value_or(0);
  }
  for (const std::string& name : env.list_dir(dir + "/chunks")) {
    total += env.file_size(dir + "/chunks/" + name).value_or(0);
  }
  return total;
}

std::uint64_t run_checkpoints(io::MemEnv& env, CheckpointPolicy policy,
                              std::uint64_t n) {
  const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
  Checkpointer& ck = *ck_heap;
  for (std::uint64_t step = 1; step <= n; ++step) {
    ck.checkpoint_now(big_state(step));
  }
  ck.flush();
  return ck.stats().checkpoints;
}

// ---------- cross-checkpoint dedup ----------

TEST(Cas, FrozenStateDedupsAcrossCheckpoints) {
  const auto v3_env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& v3_env = *v3_env_heap;
  run_checkpoints(v3_env, cas_policy(), 10);

  CheckpointPolicy v2 = cas_policy();
  v2.format_version = kInlineFormatVersion;
  const auto v2_env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& v2_env = *v2_env_heap;
  run_checkpoints(v2_env, v2, 10);

  const std::uint64_t v3_stored = dir_stored_bytes(v3_env, "cp");
  const std::uint64_t v2_stored = dir_stored_bytes(v2_env, "cp");
  // 10 near-identical checkpoints must share storage: ≥4.5x reduction
  // (the pack's self-indexing key table — what makes single-chunk
  // resolution a ranged read — costs ~34 bytes per record of the ratio).
  EXPECT_GE(v2_stored * 2, 9 * v3_stored)
      << "v2=" << v2_stored << " v3=" << v3_stored;

  // And every checkpoint still resolves to its exact state.
  for (std::uint64_t step = 1; step <= 10; ++step) {
    EXPECT_EQ(load_checkpoint(v3_env, "cp", step), big_state(step));
  }
}

TEST(Cas, DedupStatsExposeHitRatio) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", cas_policy());
  Checkpointer& ck = *ck_heap;
  for (std::uint64_t step = 1; step <= 5; ++step) {
    ck.checkpoint_now(big_state(step));
  }
  const auto stats = ck.stats();
  EXPECT_GT(stats.chunk_refs, 0u);
  EXPECT_GT(stats.chunks_deduped, 0u);
  EXPECT_GT(stats.dedup_bytes, 0u);
  // The frozen prefix dominates: most refs after the first checkpoint
  // are dedup hits.
  EXPECT_GT(stats.chunks_deduped * 2, stats.chunk_refs);
  const auto cas = ck.cas_stats();
  EXPECT_GT(cas.packfiles, 0u);
  EXPECT_GT(cas.chunks, 0u);
  EXPECT_EQ(cas.dedup_hits, stats.chunks_deduped);
}

TEST(Cas, AsyncPipelineDedupsAndRecovers) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  CheckpointPolicy policy = cas_policy();
  policy.async = true;
  policy.encode_threads = 2;
  {
    const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
    Checkpointer& ck = *ck_heap;
    for (std::uint64_t step = 1; step <= 8; ++step) {
      ck.checkpoint_now(big_state(step));
    }
    ck.flush();
    EXPECT_GT(ck.stats().chunks_deduped, 0u);
  }
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 8u);
  EXPECT_EQ(outcome->state, big_state(8));
}

TEST(Cas, V2FallbackWritesSelfContainedFiles) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  CheckpointPolicy policy = cas_policy();
  policy.format_version = kInlineFormatVersion;
  run_checkpoints(env, policy, 3);
  EXPECT_TRUE(env.list_dir("cp/chunks").empty());
  const auto data = env.read_file("cp/" + checkpoint_file_name(2));
  ASSERT_TRUE(data.has_value());
  // Decodes with no chunk source at all.
  EXPECT_EQ(decode_checkpoint(*data).step, 2u);
}

// ---------- refcounted GC ----------

TEST(Cas, GcReleasesChunksButKeepsShared) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  CheckpointPolicy policy = cas_policy();
  policy.retention.keep_last = 2;
  const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
  Checkpointer& ck = *ck_heap;
  for (std::uint64_t step = 1; step <= 10; ++step) {
    ck.checkpoint_now(big_state(step));
  }
  // Only the last two files remain, and they still resolve: the shared
  // frozen chunks survived every GC pass.
  EXPECT_EQ(load_checkpoint(env, "cp", 9), big_state(9));
  EXPECT_EQ(load_checkpoint(env, "cp", 10), big_state(10));
  EXPECT_THROW(load_checkpoint(env, "cp", 3), std::exception);

  // Packfiles of evicted checkpoints whose chunks were all unique to
  // them (the moving tail) die with them; the store never grows one
  // packfile per evicted checkpoint forever.
  const auto packs = env.list_dir("cp/chunks");
  std::size_t pack_count = 0;
  for (const auto& name : packs) {
    pack_count += parse_pack_file_name(name).has_value() ? 1 : 0;
  }
  EXPECT_LT(pack_count, 10u);
}

TEST(Cas, ChangedContentEventuallyReclaimsDeadPackfiles) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  CheckpointPolicy policy = cas_policy();
  policy.retention.keep_last = 1;
  {
    const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
    Checkpointer& ck = *ck_heap;
    // Completely different payloads per step: once evicted, a
    // checkpoint's chunks are dead.
    for (std::uint64_t step = 1; step <= 6; ++step) {
      ck.checkpoint_now(big_state(step, 512, 512));
    }
  }
  // A fresh startup (orphan sweep + compaction) leaves only live bytes.
  {
    // The constructor runs the startup sweep.
    const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
  }
  std::size_t pack_count = 0;
  std::uint64_t pack_bytes = 0;
  for (const auto& name : env.list_dir("cp/chunks")) {
    if (parse_pack_file_name(name)) {
      ++pack_count;
      pack_bytes += env.file_size("cp/chunks/" + name).value_or(0);
    }
  }
  // Live state is one checkpoint (~4.2 KiB params): everything else is
  // gone, not accumulated.
  EXPECT_LE(pack_count, 2u);
  EXPECT_LT(pack_bytes, 3 * 512 * 8 * 2);
  EXPECT_EQ(load_checkpoint(env, "cp", 6), big_state(6, 512, 512));
}

TEST(Cas, StartupSweepCompactsMixedPackfiles) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  CheckpointPolicy policy = cas_policy();
  {
    const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
    Checkpointer& ck = *ck_heap;
    ck.checkpoint_now(big_state(1));  // pack-1: frozen chunks + step-1 tail
    ck.checkpoint_now(big_state(2));  // pack-2: step-2 tail only
  }
  // Delete checkpoint 2's file outside the store (as a damaged-manifest
  // repair might): its tail chunks in pack-2 become dead, and pack-1's
  // chunks stay live through checkpoint 1.
  const std::uint64_t before =
      env.file_size("cp/chunks/" + pack_file_name(1)).value_or(0);
  {
    Manifest manifest = Manifest::load(env, "cp");
    manifest.remove(2);
    manifest.save(env, "cp");
    env.remove_file("cp/" + checkpoint_file_name(2));
  }
  {
    const auto store_heap =
        std::make_unique<CheckpointStore>(env, "cp", RetentionPolicy{});
    CheckpointStore& store = *store_heap;
    const Manifest manifest = Manifest::load(env, "cp");
    store.sweep_orphans(manifest);
  }
  // pack-2 held only step-2 chunks: fully dead, deleted. pack-1 keeps
  // every chunk (all referenced by checkpoint 1) at unchanged size.
  EXPECT_FALSE(env.exists("cp/chunks/" + pack_file_name(2)));
  EXPECT_EQ(env.file_size("cp/chunks/" + pack_file_name(1)).value_or(0),
            before);
  EXPECT_EQ(load_checkpoint(env, "cp", 1), big_state(1));
}

TEST(Cas, OrphanReleaseUsesPreDeletionRefBaseline) {
  // Regression: sweep_orphans must load the refcount baseline BEFORE
  // deleting any orphan. If the (stale-journal) rebuild ran after the
  // orphan's file was already gone, releasing the orphan's references
  // would decrement counts that never included it — freeing chunks it
  // shares with live checkpoints.
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  run_checkpoints(env, cas_policy(), 2);  // 1 and 2 share the frozen chunks
  // Strand checkpoint 1 as an orphan (advertised no longer, file still
  // on disk) and lose the journal so the next store must rebuild. The
  // shared chunks now have exactly ONE surviving reference (ckpt 2), so
  // a release against a post-deletion rebuild would zero them out.
  {
    Manifest manifest = Manifest::load(env, "cp");
    manifest.remove(1);
    manifest.save(env, "cp");
  }
  env.remove_file("cp/chunks/REFS");

  const auto store_heap =
      std::make_unique<CheckpointStore>(env, "cp", RetentionPolicy{});

  CheckpointStore& store = *store_heap;
  const Manifest manifest = Manifest::load(env, "cp");
  EXPECT_EQ(store.sweep_orphans(manifest), 1u);

  // The orphan is gone; the survivor still resolves through the shared
  // chunks (a double-free would have swept them).
  EXPECT_FALSE(env.exists("cp/" + checkpoint_file_name(1)));
  EXPECT_EQ(load_checkpoint(env, "cp", 2), big_state(2));
}

TEST(Cas, FirstInstallDoesNotDoubleCountOwnRefs) {
  // Regression: the refcount baseline is loaded at Checkpointer
  // construction (quiescent), so an install's retain() is a pure delta.
  // A rebuild racing the install could count the just-written file AND
  // apply retain() on top — leaking its chunks forever after GC.
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  {
    const auto ck_heap =
        std::make_unique<Checkpointer>(env, "cp", cas_policy());
    Checkpointer& ck = *ck_heap;
    ck.checkpoint_now(big_state(1));
  }
  const Bytes data = *env.read_file("cp/" + checkpoint_file_name(1));
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  for (const ChunkKey& key : list_chunk_refs(data)) {
    EXPECT_EQ(store.ref_count(key), 1u) << chunk_key_name(key);
  }
}

TEST(Cas, OrphanPackfileFromCrashedInstallIsSwept) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  {
    const auto ck_heap =
        std::make_unique<Checkpointer>(env, "cp", cas_policy());
    Checkpointer& ck = *ck_heap;
    ck.checkpoint_now(big_state(1));
  }
  // Simulate a crash between packfile install and checkpoint write: a
  // packfile exists whose chunks nothing references.
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  auto batch = store.begin_batch(99);
  const Bytes junk(300, 0x5A);
  const ChunkKey key = chunk_key(junk);
  ASSERT_FALSE(batch->contains(key));
  batch->put(key, codec::CodecId::kRaw, junk);
  batch->commit();  // the packfile installs; the checkpoint never does
  batch.reset();

  ASSERT_TRUE(env.exists("cp/chunks/" + pack_file_name(99)));
  {
    // Startup sweep.
    const auto ck_heap =
        std::make_unique<Checkpointer>(env, "cp", cas_policy());
  }
  EXPECT_FALSE(env.exists("cp/chunks/" + pack_file_name(99)));
  EXPECT_EQ(load_checkpoint(env, "cp", 1), big_state(1));
}

// ---------- ranged resolution / read amplification ----------

TEST(Cas, SingleChunkResolutionReadsOnlyFooterTableAndChunk) {
  // The core ranged-read claim, asserted in BYTES: opening a store and
  // resolving one chunk preads the pack header probe + footer + key
  // table + that record's encoded bytes — never the packfile.
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  run_checkpoints(env, cas_policy(), 1);
  const Bytes file_data = *env.read_file("cp/" + checkpoint_file_name(1));
  const auto refs = list_chunk_refs(file_data);
  ASSERT_GT(refs.size(), 2u);
  const ChunkKey key = refs[1];  // an interior chunk
  const std::string pack = "cp/chunks/" + pack_file_name(1);
  const std::uint64_t pack_bytes = env.file_size(pack).value();

  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");

  ChunkStore& store = *store_heap;
  const std::uint64_t before = env.bytes_read();
  EXPECT_EQ(store.get(key).size(), key.len);
  const std::uint64_t read = env.bytes_read() - before;
  // Pack v2 framing: 16-byte header probe, 28-byte footer, one 34-byte
  // key-table row per record, then the chunk's encoded bytes (== raw
  // length under the kRaw codec this directory uses).
  const std::uint64_t expected = 16 + 28 + refs.size() * 34 + key.len;
  EXPECT_EQ(read, expected)
      << "single-chunk resolution read amplification regressed";
  EXPECT_LT(read, pack_bytes / 4)
      << "resolution should not approach a whole-pack read";
}

TEST(Cas, ColdPackOpenAndResolveReadOnlyFooterTableAndChunk) {
  // Same claim across the tier boundary: a COLD pack is indexed by a
  // ranged peek (footer + key table through the cold tier) and the
  // requested chunk preads exactly its record — the capacity tier never
  // serves the pack's bulk for a single-chunk need.
  const auto hot_base_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& hot_base = *hot_base_heap;
  const auto cold_base_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& cold_base = *cold_base_heap;
  {
    tier::TieredEnv setup(hot_base, cold_base);
    const auto ck_heap =
        std::make_unique<Checkpointer>(setup, "cp", cas_policy());
    Checkpointer& ck = *ck_heap;
    ck.checkpoint_now(big_state(1));
  }
  const Bytes file_data =
      *hot_base.read_file("cp/" + checkpoint_file_name(1));
  const auto refs = list_chunk_refs(file_data);
  ASSERT_GT(refs.size(), 2u);
  const ChunkKey key = refs[1];
  // Demote the pack by hand: cold copy durable, hot copy gone.
  const std::string pack = "cp/chunks/" + pack_file_name(1);
  cold_base.write_file_atomic(pack, *hot_base.read_file(pack));
  hot_base.remove_file(pack);
  const std::uint64_t pack_bytes = cold_base.file_size(pack).value();

  tier::TieredEnv env(hot_base, cold_base, /*promote_on_read=*/false);
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  const std::uint64_t before = cold_base.bytes_read();
  EXPECT_EQ(store.get(key).size(), key.len);
  const std::uint64_t cold_read = cold_base.bytes_read() - before;
  const std::uint64_t expected = 16 + 28 + refs.size() * 34 + key.len;
  EXPECT_EQ(cold_read, expected)
      << "cold-pack open + resolve must pread footer + table + chunk only";
  EXPECT_LT(cold_read, pack_bytes / 4);
  // And nothing was promoted: the hot tier still has no pack.
  EXPECT_FALSE(hot_base.exists(pack));
}

// ---------- the REFS journal ----------

TEST(Cas, RefsJournalWrittenAndTrusted) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  run_checkpoints(env, cas_policy(), 3);
  const auto refs = env.read_file("cp/chunks/REFS");
  ASSERT_TRUE(refs.has_value());
  const std::string text(refs->begin(), refs->end());
  EXPECT_NE(text.find("qnnckpt-refs v1"), std::string::npos);
  EXPECT_NE(text.find("covers 1,2,3"), std::string::npos);
  EXPECT_NE(text.find("ref "), std::string::npos);

  // A fresh store trusts a journal that covers the directory exactly.
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  store.open();
  EXPECT_EQ(store.stats().refs_rebuilds, 0u);
}

TEST(Cas, StaleRefsJournalTriggersRebuild) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  run_checkpoints(env, cas_policy(), 3);
  // Manipulate the directory behind the journal's back.
  env.remove_file("cp/" + checkpoint_file_name(3));
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  store.open();
  EXPECT_EQ(store.stats().refs_rebuilds, 1u);
  // Rebuilt counts reflect files, not the stale journal: checkpoint 3's
  // unique chunks are unreferenced now.
  const Bytes data = *env.read_file("cp/" + checkpoint_file_name(2));
  for (const ChunkKey& key : list_chunk_refs(data)) {
    EXPECT_GE(store.ref_count(key), 1u);
  }
}

TEST(Cas, DamagedRefsJournalTriggersRebuild) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  run_checkpoints(env, cas_policy(), 2);
  const std::string garbage = "qnnckpt-refs v1\ncovers 1,2\nref ?!? what\n";
  env.write_file_atomic(
      "cp/chunks/REFS",
      util::ByteSpan{reinterpret_cast<const std::uint8_t*>(garbage.data()),
                     garbage.size()});
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  store.open();
  EXPECT_EQ(store.stats().refs_rebuilds, 1u);
  EXPECT_EQ(load_checkpoint(env, "cp", 2), big_state(2));
}

TEST(Cas, UnreadableCheckpointFileDisablesSweep) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  run_checkpoints(env, cas_policy(), 2);
  env.remove_file("cp/chunks/REFS");
  // Corrupt checkpoint 1: its references become unknowable.
  ASSERT_TRUE(env.flip_bit("cp/" + checkpoint_file_name(1), 1234));
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  store.open();
  // Nothing may die — even chunks no readable file references.
  EXPECT_EQ(store.sweep(/*compact=*/true), 0u);
  EXPECT_EQ(load_checkpoint(env, "cp", 2), big_state(2));
}

// ---------- damage behaviour ----------

TEST(Cas, DamagedPackfileFallsBackToOlderCheckpoint) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  CheckpointPolicy policy = cas_policy();
  {
    const auto ck_heap = std::make_unique<Checkpointer>(env, "cp", policy);
    Checkpointer& ck = *ck_heap;
    ck.checkpoint_now(big_state(1, 512, 512));  // disjoint content
    ck.checkpoint_now(big_state(2, 512, 512));
  }
  // Destroy checkpoint 2's packfile contents.
  ASSERT_TRUE(env.flip_bit("cp/chunks/" + pack_file_name(2), 2000));
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 1u);
  EXPECT_EQ(outcome->state, big_state(1, 512, 512));
  EXPECT_FALSE(outcome->notes.empty());
}

TEST(Cas, VerifyDirectoryFlagsChunkDamage) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  {
    const auto ck_heap =
        std::make_unique<Checkpointer>(env, "cp", cas_policy());
    Checkpointer& ck = *ck_heap;
    ck.checkpoint_now(big_state(1, 512, 512));
    ck.checkpoint_now(big_state(2, 512, 512));
  }
  ASSERT_TRUE(env.flip_bit("cp/chunks/" + pack_file_name(2), 2000));
  const auto report = verify_directory(env, "cp");
  EXPECT_FALSE(report.healthy());
  ASSERT_TRUE(report.newest_recoverable.has_value());
  EXPECT_EQ(*report.newest_recoverable, 1u);
}

// ---------- pack-handle LRU cache ----------

/// Env decorator counting ranged opens — the observable the LRU test
/// gates on: a cached pack handle means get() does NOT reopen the file.
class CountingEnv : public io::ForwardingEnv {
 public:
  using io::ForwardingEnv::ForwardingEnv;
  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    ++ranged_opens;
    return base_.open_ranged(path);
  }
  std::uint64_t ranged_opens = 0;
};

/// Stores one unique chunk through its own batch, creating one pack.
/// Returns the chunk's key.
ChunkKey store_one_pack(ChunkStore& store, std::uint64_t epoch) {
  util::Rng rng(5000 + epoch);
  Bytes chunk(256);
  for (auto& b : chunk) {
    b = static_cast<std::uint8_t>(rng());
  }
  const ChunkKey key{util::crc32c(chunk), chunk.size()};
  auto batch = store.begin_batch(epoch);
  if (!batch->contains(key)) {
    batch->put(key, codec::CodecId::kRaw, chunk);
  }
  batch->commit();
  store.publish(*batch);
  return key;
}

TEST(Cas, PackHandleCacheHoldsEverySlotWithoutReopens) {
  // Interleaved reads across as many packs as the cache has slots must
  // reuse cached handles: the old single-slot cache thrashed (reopen
  // per get) the moment two packs alternated.
  constexpr std::size_t kPacks = ChunkStore::kPackHandleSlots;
  const auto base_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& base = *base_heap;
  CountingEnv env(base);
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  std::vector<ChunkKey> keys;
  for (std::uint64_t epoch = 1; epoch <= kPacks; ++epoch) {
    keys.push_back(store_one_pack(store, epoch));
  }
  // First round may open packs; afterwards every handle is hot.
  for (const ChunkKey& key : keys) {
    store.get(key);
  }
  const std::uint64_t warm = env.ranged_opens;
  for (int round = 0; round < 8; ++round) {
    for (const ChunkKey& key : keys) {
      EXPECT_EQ(store.get(key).size(), key.len);
    }
  }
  EXPECT_EQ(env.ranged_opens, warm)
      << "interleaved gets across <= " << kPacks
      << " packs must not reopen files";
  EXPECT_EQ(store.stats().pack_handle_evictions, 0u);
}

TEST(Cas, PackHandleCacheEvictsLeastRecentlyUsed) {
  constexpr std::size_t kPacks = ChunkStore::kPackHandleSlots + 2;
  const auto base_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& base = *base_heap;
  CountingEnv env(base);
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  std::vector<ChunkKey> keys;
  for (std::uint64_t epoch = 1; epoch <= kPacks; ++epoch) {
    keys.push_back(store_one_pack(store, epoch));
  }
  const std::uint64_t warm = env.ranged_opens;
  // Cycling two more packs than there are slots evicts on every get
  // (LRU's worst case) — the point is that eviction HAPPENS and is
  // counted, not that cycling is fast.
  for (int round = 0; round < 3; ++round) {
    for (const ChunkKey& key : keys) {
      EXPECT_EQ(store.get(key).size(), key.len);
    }
  }
  EXPECT_GT(env.ranged_opens, warm);
  EXPECT_GT(store.stats().pack_handle_evictions, 0u);
}

// ---------- sharded index: concurrency ----------

TEST(Cas, ShardedIndexConcurrentProbesAndRefsStayExact) {
  // N threads hammer the sharded index through every hot path at once —
  // dedup probes (pin_and_probe via Batch::contains), retain/release,
  // and concurrent publishes of new packs — and the final refcounts
  // must come out EXACT: the per-shard locking loses no update.
  const auto env_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& env = *env_heap;
  const auto store_heap = std::make_unique<ChunkStore>(env, "cp");
  ChunkStore& store = *store_heap;
  constexpr std::size_t kKeys = 32;
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;

  std::vector<ChunkKey> keys;
  std::vector<Bytes> payloads;
  {
    auto batch = store.begin_batch(1);
    util::Rng rng(99);
    for (std::size_t i = 0; i < kKeys; ++i) {
      Bytes chunk(128);
      for (auto& b : chunk) {
        b = static_cast<std::uint8_t>(rng());
      }
      const ChunkKey key{util::crc32c(chunk), chunk.size()};
      keys.push_back(key);
      payloads.push_back(chunk);
      ASSERT_FALSE(batch->contains(key));
      batch->put(key, codec::CodecId::kRaw, chunk);
    }
    batch->commit();
    store.publish(*batch);
  }

  std::atomic<std::uint64_t> probe_misses{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, &keys, &probe_misses, t] {
      for (int round = 0; round < kRounds; ++round) {
        store.retain(keys);
        if (round % 2 == 1) {
          store.release(keys);
        }
        // Dedup-probe every key through a fresh batch (each probe pins;
        // batch destruction unpins). All keys are resident and nothing
        // sweeps, so every probe must hit.
        auto batch = store.begin_batch(
            1000 + static_cast<std::uint64_t>(t) * kRounds + round);
        for (std::size_t i = 0; i < keys.size(); ++i) {
          const std::size_t idx =
              (i * (2 * static_cast<std::size_t>(t) + 3) + round) %
              keys.size();
          if (!batch->contains(keys[idx])) {
            probe_misses.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // And one brand-new chunk published concurrently per round.
        const ChunkKey fresh = store_one_pack(
            store, 100000 + static_cast<std::uint64_t>(t) * kRounds + round);
        if (!store.contains(fresh)) {
          probe_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  EXPECT_EQ(probe_misses.load(), 0u);
  // Per thread: kRounds retains, kRounds/2 releases of every key.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * (kRounds - kRounds / 2);
  for (const ChunkKey& key : keys) {
    ASSERT_EQ(store.ref_count(key), expected);
  }
  EXPECT_EQ(store.get(keys[0]), payloads[0]);
}

// ---------- compression waves ----------

TEST(Cas, WavesKeepRecordOrderAndKeyTableForEveryWindow) {
  // A 64-chunk extern section of which only every fifth chunk and a
  // repeated all-zero chunk are new: each wave probes until it holds
  // `window` misses, so how many chunks a wave spans depends on the
  // window. The pack's records, the key table and every container byte
  // must not.
  constexpr std::size_t kChunk = 256;
  constexpr std::size_t kChunks = 64;
  util::Rng rng(515);
  Bytes payload(kChunks * kChunk + 100);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng());
  }
  for (const std::size_t zero : {7, 21, 22, 40}) {
    std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(zero * kChunk),
                kChunk, 0);
  }
  const auto chunk_at = [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    return ByteSpan(payload).subspan(
        begin, std::min(kChunk, payload.size() - begin));
  };
  CheckpointFile file;
  file.checkpoint_id = 2;
  file.sections.push_back(Section{.kind = SectionKind::kParams,
                                  .codec = codec::CodecId::kLz,
                                  .payload = payload});

  struct Outcome {
    Bytes container;
    Bytes pack;
    std::vector<ChunkKey> records;
    std::uint64_t dedup_hits = 0;
  };
  std::vector<Outcome> outcomes;
  for (const std::size_t window : {1, 4, 16}) {
    const auto env_heap = std::make_unique<io::MemEnv>();
    const auto store_heap = std::make_unique<ChunkStore>(*env_heap, "cp");
    const auto pool_heap = std::make_unique<util::ThreadPool>(3);
    ChunkStore& store = *store_heap;
    {
      // Resident: every chunk but the fifths and the zero chunks.
      auto batch = store.begin_batch(1);
      for (std::size_t c = 0; c <= kChunks; ++c) {
        const ChunkKey key = chunk_key(chunk_at(c));
        if (c % 5 != 0 && key != chunk_key(Bytes(kChunk, 0)) &&
            !batch->contains(key)) {
          batch->put(key, codec::CodecId::kRaw, chunk_at(c));
        }
      }
      batch->commit();
      store.publish(*batch);
    }
    auto batch = store.begin_batch(2);
    Outcome o;
    o.container = encode_checkpoint(
        file, EncodeOptions{.chunk_bytes = kChunk,
                            .pool = pool_heap.get(),
                            .version = 3,
                            .sink = batch.get(),
                            .encode_window = window});
    batch->commit();
    store.publish(*batch);
    o.dedup_hits = batch->dedup_hits();
    const std::string pack = "cp/chunks/" + pack_file_name(2);
    o.pack = *env_heap->read_file(pack);
    o.records = list_pack_keys(*env_heap, pack);
    outcomes.push_back(std::move(o));
  }
  // Misses in chunk order, the zero chunk once (its repeats hit).
  std::vector<ChunkKey> expected;
  for (std::size_t c = 0; c <= kChunks; ++c) {
    const ChunkKey key = chunk_key(chunk_at(c));
    if ((c % 5 == 0 || key == chunk_key(Bytes(kChunk, 0))) &&
        std::find(expected.begin(), expected.end(), key) == expected.end()) {
      expected.push_back(key);
    }
  }
  EXPECT_EQ(outcomes[0].records, expected);
  EXPECT_EQ(outcomes[0].dedup_hits, kChunks + 1 - expected.size());
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].records, outcomes[0].records) << "window " << i;
    EXPECT_EQ(outcomes[i].container, outcomes[0].container) << "window " << i;
    EXPECT_EQ(outcomes[i].pack, outcomes[0].pack) << "window " << i;
    EXPECT_EQ(outcomes[i].dedup_hits, outcomes[0].dedup_hits)
        << "window " << i;
  }
}

// ---------- in-flight dedup across async batches ----------

/// Holds every checkpoint-container write until release(): the writer
/// stops at the first install, so the encodes queued behind it probe
/// while every older batch is still unpublished. Optionally streams one
/// packfile through `pack_env` instead (a FaultEnv failing its install).
class HoldInstallsEnv final : public io::ForwardingEnv {
 public:
  explicit HoldInstallsEnv(io::Env& base, io::Env* pack_env = nullptr,
                           std::string pack_name = {})
      : ForwardingEnv(base),
        pack_env_(pack_env),
        pack_name_(std::move(pack_name)) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    if (pack_env_ != nullptr && path.ends_with("/" + pack_name_)) {
      return pack_env_->new_writable(path, mode);
    }
    return base_.new_writable(path, mode);
  }

  void write_file_atomic(const std::string& path,
                         util::ByteSpan data) override {
    if (path.find("/ckpt-") != std::string::npos) {
      std::unique_lock lock(mu_);
      released_cv_.wait(lock, [this] { return released_; });
    }
    Env::write_file_atomic(path, data);
  }

  void release() {
    {
      std::lock_guard lock(mu_);
      released_ = true;
    }
    released_cv_.notify_all();
  }

 private:
  io::Env* const pack_env_;
  const std::string pack_name_;
  std::mutex mu_;
  std::condition_variable released_cv_;
  bool released_ = false;
};

/// s2 shares every params chunk with s1 but the tail holding its moving
/// doubles; s3 repeats s2's params. Nothing is resident when they probe
/// under HoldInstallsEnv, so batch 2 borrows from batch 1 and batch 3
/// borrows everything from batches 1 and 2.
std::vector<qnn::TrainingState> overlap_states() {
  std::vector<qnn::TrainingState> states = {big_state(1), big_state(2),
                                            big_state(2)};
  states[2].step = 3;
  return states;
}

CheckpointPolicy overlap_policy() {
  CheckpointPolicy policy = cas_policy();
  policy.async = true;
  policy.encode_threads = 1;  // encodes probe in checkpoint order
  policy.encode_queue = 3;
  return policy;
}

/// The same states checkpointed synchronously, where each batch
/// publishes before the next probes: the reference chunk ledger.
struct SyncLedger {
  std::uint64_t chunk_refs = 0;
  std::uint64_t chunks_deduped = 0;
  std::uint64_t chunks_written = 0;
};

SyncLedger sync_ledger(const std::vector<qnn::TrainingState>& states) {
  const auto env_heap = std::make_unique<io::MemEnv>();
  CheckpointPolicy policy = overlap_policy();
  policy.async = false;
  const auto ck_heap = std::make_unique<Checkpointer>(*env_heap, "cp", policy);
  for (const qnn::TrainingState& s : states) {
    ck_heap->checkpoint_now(s);
  }
  return {.chunk_refs = ck_heap->stats().chunk_refs,
          .chunks_deduped = ck_heap->stats().chunks_deduped,
          .chunks_written = ck_heap->cas_stats().chunks_written};
}

/// Checkpoints `states` while `hold` keeps the writer at the first
/// install, waits until every encode has probed (`chunk_refs` refs in
/// all) or `dead` reports the process gone, then releases and flushes.
void checkpoint_overlapped(Checkpointer& ck, HoldInstallsEnv& hold,
                           const std::vector<qnn::TrainingState>& states,
                           std::uint64_t chunk_refs,
                           const std::function<bool()>& dead = {}) {
  for (const qnn::TrainingState& s : states) {
    ck.checkpoint_now(s);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (ck.stats().chunk_refs < chunk_refs && !(dead && dead())) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "encodes did not finish probing";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hold.release();
  ck.flush();
}

std::vector<std::string> pack_files(io::Env& env) {
  std::vector<std::string> packs;
  for (const std::string& name : env.list_dir("cp/chunks")) {
    if (parse_pack_file_name(name)) {
      packs.push_back(name);
    }
  }
  std::sort(packs.begin(), packs.end());
  return packs;
}

TEST(Cas, InFlightBatchesBorrowClaimedChunksInsteadOfRestoringThem) {
  const std::vector<qnn::TrainingState> states = overlap_states();
  const SyncLedger sync = sync_ledger(states);
  ASSERT_GT(sync.chunks_deduped, 0u);
  const auto mem_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& mem = *mem_heap;
  const auto hold_heap = std::make_unique<HoldInstallsEnv>(mem);
  {
    const auto ck_heap =
        std::make_unique<Checkpointer>(*hold_heap, "cp", overlap_policy());
    Checkpointer& ck = *ck_heap;
    checkpoint_overlapped(ck, *hold_heap, states, sync.chunk_refs);
    const auto stats = ck.stats();
    EXPECT_EQ(stats.dropped_writes, 0u);
    EXPECT_EQ(stats.chunk_refs, sync.chunk_refs);
    // No batch was published while the others probed, so every hit is
    // a borrow; they count as dedup hits, exactly as sync mode's
    // published hits do, and nothing is stored twice.
    EXPECT_EQ(stats.chunks_deduped, sync.chunks_deduped);
    EXPECT_EQ(ck.cas_stats().chunks_written, sync.chunks_written);
  }
  // Batch 3 borrowed everything: it wrote no pack.
  EXPECT_EQ(pack_files(mem), (std::vector<std::string>{pack_file_name(1),
                                                       pack_file_name(2)}));
  std::set<ChunkKey> seen;
  std::size_t records = 0;
  for (const std::string& pack : pack_files(mem)) {
    for (const ChunkKey& key : list_pack_keys(mem, "cp/chunks/" + pack)) {
      EXPECT_TRUE(seen.insert(key).second)
          << chunk_key_name(key) << " stored in more than one record";
      ++records;
    }
  }
  EXPECT_EQ(records, sync.chunks_written);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(load_checkpoint(mem, "cp", id), states[id - 1]) << id;
  }
  const auto outcome = recover_latest(mem, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 3u);
  EXPECT_EQ(outcome->state, states[2]);
  EXPECT_TRUE(verify_directory(mem, "cp").healthy());
}

TEST(Cas, LenderDeathDropsItsBorrowers) {
  // Batch 2's pack install fails: batch 3, which borrowed batch 2's new
  // chunks, must not be listed, since those chunks never became durable.
  const std::vector<qnn::TrainingState> states = overlap_states();
  const SyncLedger sync = sync_ledger(states);
  const auto mem_heap = std::make_unique<io::MemEnv>();
  io::MemEnv& mem = *mem_heap;
  const auto fault_heap = std::make_unique<io::FaultEnv>(
      mem, io::FaultSpec{.torn_write_prob = 1.0,
                         .crash_prob = 1.0,
                         .fault_atomic_writes = true});
  const auto hold_heap = std::make_unique<HoldInstallsEnv>(
      mem, fault_heap.get(), pack_file_name(2));
  // Repeats s2's params, including the chunks only dead batch 2 claimed.
  qnn::TrainingState after = states[1];
  after.step = 4;
  {
    const auto ck_heap =
        std::make_unique<Checkpointer>(*hold_heap, "cp", overlap_policy());
    Checkpointer& ck = *ck_heap;
    checkpoint_overlapped(ck, *hold_heap, states, sync.chunk_refs);
    EXPECT_EQ(fault_heap->faults_injected(), 1u);
    // The lender and its borrower.
    EXPECT_EQ(ck.stats().dropped_writes, 2u);
    const Manifest manifest = Manifest::load(mem, "cp");
    ASSERT_EQ(manifest.entries().size(), 1u);
    EXPECT_EQ(manifest.entries()[0].id, 1u);
    const auto outcome = recover_latest(mem, "cp");
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->checkpoint_id, 1u);
    EXPECT_EQ(outcome->state, states[0]);
    EXPECT_TRUE(verify_directory(mem, "cp").healthy());
    // The dead claims are gone: the next checkpoint stores the chunks
    // batch 2 claimed itself and installs.
    ck.checkpoint_now(after);
    ck.flush();
    EXPECT_EQ(ck.stats().dropped_writes, 2u);
  }
  const auto outcome = recover_latest(mem, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->checkpoint_id, 4u);
  EXPECT_EQ(outcome->state, after);
  EXPECT_EQ(load_checkpoint(mem, "cp", 1), states[0]);
  const DirectoryReport report = verify_directory(mem, "cp");
  EXPECT_TRUE(report.healthy());
  for (const CheckpointReport& c : report.checkpoints) {
    EXPECT_EQ(c.health, CheckpointHealth::kIntact) << c.id;
  }
}

TEST(Cas, BorrowingAsyncRunSurvivesEveryCrashPoint) {
  const std::vector<qnn::TrainingState> states = overlap_states();
  const SyncLedger sync = sync_ledger(states);
  std::uint64_t written_uncrashed = 0;
  const auto r = io::enumerate_crash_schedules(
      [] { return std::make_unique<io::MemEnv>(); },
      [&](io::CrashScheduleEnv& env) {
        const auto hold_heap = std::make_unique<HoldInstallsEnv>(env);
        const auto ck_heap =
            std::make_unique<Checkpointer>(*hold_heap, "cp", overlap_policy());
        checkpoint_overlapped(*ck_heap, *hold_heap, states, sync.chunk_refs,
                              [&env] { return env.crashed(); });
        if (!env.crashed()) {
          written_uncrashed = ck_heap->cas_stats().chunks_written;
        }
      },
      [&](io::Env& base, const io::CrashPlan& plan) {
        const std::string at = "crash at op " +
                               std::to_string(plan.crash_at_op) + " durable " +
                               std::to_string(plan.durable_bytes);
        const Manifest manifest = Manifest::load(base, "cp");
        if (plan.crash_at_op == 0) {
          EXPECT_EQ(manifest.entries().size(), states.size()) << at;
        }
        // A listed entry referencing an absent chunk fails to load.
        for (const ManifestEntry& e : manifest.entries()) {
          try {
            EXPECT_EQ(load_checkpoint(base, "cp", e.id), states[e.id - 1])
                << at << ": entry " << e.id;
          } catch (const std::exception& ex) {
            ADD_FAILURE() << at << ": entry " << e.id
                          << " does not resolve: " << ex.what();
          }
        }
        const auto outcome = recover_latest(base, "cp");
        if (!manifest.entries().empty()) {
          ASSERT_TRUE(outcome.has_value()) << at;
          EXPECT_NE(manifest.find(outcome->checkpoint_id), nullptr) << at;
          EXPECT_EQ(outcome->state, states[outcome->checkpoint_id - 1]) << at;
        }
      },
      1, {0, 13, io::kOpDurable});
  // The uncrashed run borrowed: no chunk was stored twice.
  EXPECT_EQ(written_uncrashed, sync.chunks_written);
  EXPECT_GT(r.points_run, 10u);
  std::printf("borrowing crash sweep: %llu ops, %llu crash points\n",
              static_cast<unsigned long long>(r.total_ops),
              static_cast<unsigned long long>(r.points_run));
}

TEST(Cas, PackFileNameRoundTrips) {
  EXPECT_EQ(pack_file_name(42), "pack-0000000042.qpak");
  EXPECT_EQ(parse_pack_file_name("pack-0000000042.qpak"), 42u);
  EXPECT_FALSE(parse_pack_file_name("pack-42.qpak").has_value());
  EXPECT_FALSE(parse_pack_file_name("ckpt-0000000042.qckp").has_value());
  EXPECT_FALSE(parse_pack_file_name("pack-00000000xx.qpak").has_value());
}

}  // namespace
}  // namespace qnn::ckpt
