// The benchmark's Env decorator.
//
// BenchEnv sits directly on the PosixEnv (under any PrefixEnv, ShapedEnv
// or TieredEnv), so it sees every physical operation with its full path.
// It overrides only the handle API (new_writable, open_ranged) and the
// metadata calls; the whole-buffer helpers reach it through those.
//
// For every operation it
//   * classifies the file (container, pack, manifest, refs, tiermap, wal,
//     other) and the tier (paths under `cold_prefix` are cold reads);
//   * counts calls and bytes and times the call with steady_clock;
//   * when a tracer is set, brackets the call in an "io.<class>.<op>"
//     span on the calling thread.
// It also records, for every checkpoint id, when the first completed
// MANIFEST atomic install that lists that id finished. That is the
// durability point `durable_ms` measures to, and an id that no MANIFEST
// install ever lists is a failed checkpoint.
//
// In traced mode it additionally lists the chunk keys of every container
// it installs (list_chunk_refs) and of every packfile it installs
// (list_pack_keys), which gives the chunk-store dedup ratio from the
// bytes on disk rather than from program counters.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "ckpt/cas.hpp"
#include "ckpt/format.hpp"
#include "io/env.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace io = qnn::io;

enum FileClass : std::size_t {
  kContainer,
  kPack,
  kManifest,
  kRefs,
  kTiermap,
  kWal,
  kOther,
  kClassCount
};

inline constexpr std::array<const char*, kClassCount> kClassNames = {
    "container", "pack", "manifest", "refs", "tiermap", "wal", "other"};

inline FileClass classify(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return base.size() >= s.size() &&
           base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (ends(".qckp")) return kContainer;
  if (ends(".qpak")) return kPack;
  if (base == "MANIFEST") return kManifest;
  if (base == "REFS") return kRefs;
  if (base == "TIERMAP") return kTiermap;
  if (ends(".qwal")) return kWal;
  return kOther;
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Plain counters, copied out of the atomics for arithmetic.
struct IoCounts {
  struct PerClass {
    std::uint64_t write_bytes = 0, appends = 0, installs = 0, syncs = 0,
                  append_ns = 0, sync_ns = 0, open_close_ns = 0, opens = 0,
                  preads = 0, read_bytes = 0, read_ns = 0, removes = 0;
    /// Time on the write path: open, appends, syncs and close.
    [[nodiscard]] std::uint64_t write_ns() const {
      return append_ns + sync_ns + open_close_ns;
    }
  };
  std::array<PerClass, kClassCount> cls{};
  std::uint64_t meta_ops = 0, meta_ns = 0;
  std::uint64_t cold_reads = 0, cold_read_bytes = 0;
  std::uint64_t chunk_refs = 0, chunks_written = 0;

  [[nodiscard]] std::uint64_t written() const {
    std::uint64_t n = 0;
    for (const auto& c : cls) n += c.write_bytes;
    return n;
  }
  [[nodiscard]] std::uint64_t read() const {
    std::uint64_t n = 0;
    for (const auto& c : cls) n += c.read_bytes;
    return n;
  }
  [[nodiscard]] std::uint64_t flushes() const {
    std::uint64_t n = 0;
    for (const auto& c : cls) n += c.syncs + c.installs;
    return n;
  }
  IoCounts operator-(const IoCounts& o) const {
    IoCounts d = *this;
    d.zip(o, [](std::uint64_t& a, std::uint64_t b) { a -= b; });
    return d;
  }

 private:
  /// Applies f(mine, theirs) to every counter.
  template <typename F>
  void zip(const IoCounts& o, F f) {
    for (std::size_t i = 0; i < kClassCount; ++i) {
      auto& a = cls[i];
      const auto& b = o.cls[i];
      f(a.write_bytes, b.write_bytes);
      f(a.appends, b.appends);
      f(a.installs, b.installs);
      f(a.syncs, b.syncs);
      f(a.append_ns, b.append_ns);
      f(a.sync_ns, b.sync_ns);
      f(a.open_close_ns, b.open_close_ns);
      f(a.opens, b.opens);
      f(a.preads, b.preads);
      f(a.read_bytes, b.read_bytes);
      f(a.read_ns, b.read_ns);
      f(a.removes, b.removes);
    }
    f(meta_ops, o.meta_ops);
    f(meta_ns, o.meta_ns);
    f(cold_reads, o.cold_reads);
    f(cold_read_bytes, o.cold_read_bytes);
    f(chunk_refs, o.chunk_refs);
    f(chunks_written, o.chunks_written);
  }
};

class BenchEnv final : public io::ForwardingEnv {
 public:
  /// `tracer` may be null (untraced run). Paths starting with
  /// `cold_prefix` (when non-empty) belong to the cold tier.
  BenchEnv(io::Env& base, qnn::obs::Tracer* tracer, std::string cold_prefix)
      : ForwardingEnv(base),
        tracer_(tracer),
        cold_prefix_(std::move(cold_prefix)) {}

  std::unique_ptr<io::WritableFile> new_writable(const std::string& path,
                                                 io::WriteMode mode) override {
    const FileClass c = classify(path);
    Timed t(*this, c, "open");
    auto file = base_.new_writable(path, mode);
    t.done(counters_[c].open_close_ns);
    return std::make_unique<Writable>(*this, c, path, mode, std::move(file));
  }

  std::unique_ptr<io::RandomAccessFile> open_ranged(
      const std::string& path) override {
    const FileClass c = classify(path);
    Timed t(*this, c, "open_ranged");
    auto file = base_.open_ranged(path);
    t.done(counters_[c].read_ns);
    if (!file) {
      return nullptr;
    }
    counters_[c].opens++;
    return std::make_unique<Ranged>(*this, c, is_cold(path), std::move(file));
  }

  bool exists(const std::string& path) override {
    Timed t(*this, kOther, "exists");
    const bool r = base_.exists(path);
    meta_done(t);
    return r;
  }

  void remove_file(const std::string& path) override {
    const FileClass c = classify(path);
    Timed t(*this, c, "remove");
    // A tiered remove reaches both tiers; count only real deletions.
    if (base_.exists(path)) {
      counters_[c].removes++;
    }
    base_.remove_file(path);
    meta_done(t);
  }

  std::vector<std::string> list_dir(const std::string& dir) override {
    Timed t(*this, kOther, "list_dir");
    auto r = base_.list_dir(dir);
    meta_done(t);
    return r;
  }

  std::optional<std::uint64_t> file_size(const std::string& path) override {
    Timed t(*this, kOther, "file_size");
    auto r = base_.file_size(path);
    meta_done(t);
    return r;
  }

  [[nodiscard]] IoCounts counts() const {
    IoCounts s;
    for (std::size_t i = 0; i < kClassCount; ++i) {
      const Atomic& a = counters_[i];
      auto& d = s.cls[i];
      d.write_bytes = a.write_bytes;
      d.appends = a.appends;
      d.installs = a.installs;
      d.syncs = a.syncs;
      d.append_ns = a.append_ns;
      d.sync_ns = a.sync_ns;
      d.open_close_ns = a.open_close_ns;
      d.opens = a.opens;
      d.preads = a.preads;
      d.read_bytes = a.read_bytes;
      d.read_ns = a.read_ns;
      d.removes = a.removes;
    }
    s.meta_ops = meta_ops_;
    s.meta_ns = meta_ns_;
    s.cold_reads = cold_reads_;
    s.cold_read_bytes = cold_read_bytes_;
    s.chunk_refs = chunk_refs_;
    s.chunks_written = chunks_written_;
    return s;
  }

  /// Checkpoints the most recently installed MANIFEST lists.
  [[nodiscard]] std::size_t listed_count() const { return listed_count_; }

  /// steady_clock ns at which a completed MANIFEST install first listed
  /// checkpoint `id`.
  [[nodiscard]] std::optional<std::uint64_t> first_listed_ns(
      std::uint64_t id) const {
    std::lock_guard lock(listed_mu_);
    const auto it = first_listed_.find(id);
    if (it == first_listed_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  struct Atomic {
    std::atomic<std::uint64_t> write_bytes{0}, appends{0}, installs{0},
        syncs{0}, append_ns{0}, sync_ns{0}, open_close_ns{0}, opens{0},
        preads{0}, read_bytes{0}, read_ns{0}, removes{0};
  };

  /// Times one call and, when tracing, brackets it in a span.
  class Timed {
   public:
    Timed(BenchEnv& env, FileClass c, const char* op) : t0_(now_ns()) {
      if (env.tracer_ != nullptr) {
        span_ = qnn::obs::Span(env.tracer_,
                               std::string("io.") + kClassNames[c] + "." + op,
                               "io");
      }
    }
    void done(std::atomic<std::uint64_t>& sink) {
      span_.finish();
      sink += now_ns() - t0_;
    }

   private:
    std::uint64_t t0_;
    qnn::obs::Span span_;
  };

  void meta_done(Timed& t) {
    t.done(meta_ns_);
    meta_ops_++;
  }

  [[nodiscard]] bool is_cold(const std::string& path) const {
    return !cold_prefix_.empty() && path.rfind(cold_prefix_, 0) == 0;
  }

  /// Records the ids a just-installed MANIFEST lists ("ckpt id=N ...").
  void manifest_installed(const std::string& text) {
    const std::uint64_t t = now_ns();
    std::lock_guard lock(listed_mu_);
    std::size_t pos = 0;
    std::size_t n = 0;
    while ((pos = text.find("ckpt id=", pos)) != std::string::npos) {
      pos += 8;
      const std::uint64_t id = std::stoull(text.substr(pos, 20));
      first_listed_.emplace(id, t);
      ++n;
    }
    listed_count_ = n;
  }

  /// Key listings for the dedup ratio (traced runs only).
  void container_installed(const io::Bytes& bytes) {
    chunk_refs_ += qnn::ckpt::list_chunk_refs(bytes).size();
  }
  void pack_installed(const std::string& path) {
    chunks_written_ += qnn::ckpt::list_pack_keys(base_, path).size();
  }

  class Writable final : public io::WritableFile {
   public:
    Writable(BenchEnv& env, FileClass c, std::string path, io::WriteMode mode,
             std::unique_ptr<io::WritableFile> base)
        : env_(env),
          c_(c),
          path_(std::move(path)),
          mode_(mode),
          keep_(c == kManifest ||
                (c == kContainer && env.tracer_ != nullptr &&
                 !env.is_cold(path_))),
          base_(std::move(base)) {}

    void append(io::ByteSpan data) override {
      Timed t(env_, c_, "append");
      base_->append(data);
      t.done(env_.counters_[c_].append_ns);
      env_.counters_[c_].appends++;
      env_.counters_[c_].write_bytes += data.size();
      if (keep_) {
        kept_.insert(kept_.end(), data.begin(), data.end());
      }
    }
    void sync() override {
      Timed t(env_, c_, "sync");
      base_->sync();
      t.done(env_.counters_[c_].sync_ns);
      env_.counters_[c_].syncs++;
    }
    void close() override {
      Timed t(env_, c_, "close");
      base_->close();
      t.done(env_.counters_[c_].open_close_ns);
      if (mode_ != io::WriteMode::kAtomic) {
        return;
      }
      env_.counters_[c_].installs++;
      if (c_ == kManifest) {
        env_.manifest_installed(std::string(kept_.begin(), kept_.end()));
      } else if (keep_) {
        env_.container_installed(kept_);
      } else if (c_ == kPack && env_.tracer_ != nullptr &&
                 !env_.is_cold(path_)) {
        env_.pack_installed(path_);
      }
    }

   private:
    BenchEnv& env_;
    const FileClass c_;
    const std::string path_;
    const io::WriteMode mode_;
    const bool keep_;
    io::Bytes kept_;
    std::unique_ptr<io::WritableFile> base_;
  };

  class Ranged final : public io::RandomAccessFile {
   public:
    Ranged(BenchEnv& env, FileClass c, bool cold,
           std::unique_ptr<io::RandomAccessFile> base)
        : env_(env), c_(c), cold_(cold), base_(std::move(base)) {
      if (cold_) {
        env_.cold_reads_++;
      }
    }
    [[nodiscard]] std::uint64_t size() const override { return base_->size(); }
    io::Bytes pread(std::uint64_t offset, std::uint64_t n) override {
      Timed t(env_, c_, "pread");
      io::Bytes out = base_->pread(offset, n);
      t.done(env_.counters_[c_].read_ns);
      env_.counters_[c_].preads++;
      env_.counters_[c_].read_bytes += out.size();
      if (cold_) {
        env_.cold_read_bytes_ += out.size();
      }
      return out;
    }

   private:
    BenchEnv& env_;
    const FileClass c_;
    const bool cold_;
    std::unique_ptr<io::RandomAccessFile> base_;
  };

  qnn::obs::Tracer* const tracer_;
  const std::string cold_prefix_;
  std::array<Atomic, kClassCount> counters_;
  std::atomic<std::uint64_t> meta_ops_{0}, meta_ns_{0};
  std::atomic<std::uint64_t> cold_reads_{0}, cold_read_bytes_{0};
  std::atomic<std::uint64_t> chunk_refs_{0}, chunks_written_{0};
  std::atomic<std::size_t> listed_count_{0};
  mutable std::mutex listed_mu_;
  std::map<std::uint64_t, std::uint64_t> first_listed_;
};

}  // namespace perfbench
