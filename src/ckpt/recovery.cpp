#include "ckpt/recovery.hpp"

#include <algorithm>
#include <map>

#include "ckpt/cas.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/wal.hpp"
#include "codec/xor_delta.hpp"
#include "tier/tiered_env.hpp"

namespace qnn::ckpt {

namespace {

/// Reads + strictly decodes one checkpoint file by manifest entry (or raw
/// file name), resolving content-addressed sections through `source`.
/// Throws on any problem.
CheckpointFile read_one(io::Env& env, const std::string& dir,
                        const std::string& file_name, ChunkSource* source) {
  const auto data = env.read_file(dir + "/" + file_name);
  if (!data) {
    throw CorruptCheckpoint("file missing: " + file_name);
  }
  return decode_checkpoint(*data, DecodeOptions{.source = source});
}

/// Candidate list: manifest entries if present, else directory scan.
/// Manifest damage (unparseable lines) is reported through `notes`.
std::vector<ManifestEntry> candidates(io::Env& env, const std::string& dir,
                                      std::vector<std::string>& notes) {
  Manifest manifest = Manifest::load(env, dir);
  if (manifest.parse_warnings() > 0) {
    notes.push_back("manifest: skipped " +
                    std::to_string(manifest.parse_warnings()) +
                    " unparseable line(s)");
  }
  if (!manifest.entries().empty()) {
    return manifest.entries();
  }
  // Manifest missing or empty: let the files speak. Parent links and steps
  // are recovered from the file headers during resolution.
  std::vector<ManifestEntry> found;
  for (const std::string& name : env.list_dir(dir)) {
    if (const auto id = parse_checkpoint_file_name(name)) {
      ManifestEntry e;
      e.id = *id;
      e.file = name;
      found.push_back(e);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.id < b.id;
            });
  return found;
}

/// Fully resolves checkpoint `id`: loads its ancestor chain and applies
/// XOR deltas root-to-leaf. Returns resolved (non-delta) sections.
/// A v3 file's extern sections resolve through `source` (the
/// directory's chunk store — shared across candidates so its packfile
/// scan happens once per recovery, not once per attempt); a missing or
/// corrupt chunk throws like any other damage, so callers fall back to
/// older candidates instead of accepting it.
std::vector<Section> resolve_chain(io::Env& env, const std::string& dir,
                                   std::uint64_t id,
                                   const RecoveryOptions& options,
                                   ChunkSource* source,
                                   std::size_t* depth_out = nullptr) {
  // Collect leaf -> root.
  std::vector<CheckpointFile> chain;
  std::uint64_t cur = id;
  while (cur != 0) {
    if (chain.size() >= options.max_chain) {
      throw CorruptCheckpoint("incremental chain too long or cyclic");
    }
    CheckpointFile file =
        read_one(env, dir, checkpoint_file_name(cur), source);
    if (file.checkpoint_id != cur) {
      throw CorruptCheckpoint("checkpoint id does not match file name");
    }
    const std::uint64_t parent = file.parent_id;
    chain.push_back(std::move(file));
    cur = parent;
  }
  if (depth_out != nullptr) {
    *depth_out = chain.size();
  }

  // Root first; fold deltas forward. Each section's decoded buffer is
  // folded in place and moved into `resolved`: no per-link copy.
  std::map<SectionKind, Bytes> resolved;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (Section& s : it->sections) {
      if (s.is_delta()) {
        const auto base = resolved.find(s.kind);
        if (base == resolved.end()) {
          throw CorruptCheckpoint("delta section " + section_kind_name(s.kind) +
                                  " has no base in ancestor chain");
        }
        codec::xor_with_parent_inplace(s.payload, base->second);
        base->second = std::move(s.payload);
      } else {
        resolved[s.kind] = std::move(s.payload);
      }
    }
  }

  std::vector<Section> sections;
  sections.reserve(resolved.size());
  for (auto& [kind, payload] : resolved) {
    sections.push_back(Section{.kind = kind,
                               .codec = codec::CodecId::kRaw,
                               .flags = 0,
                               .payload = std::move(payload)});
  }
  return sections;
}

}  // namespace

qnn::TrainingState load_checkpoint(io::Env& env, const std::string& dir,
                                   std::uint64_t id,
                                   const RecoveryOptions& options) {
  ChunkStore cas(env, dir);
  return sections_to_state(resolve_chain(env, dir, id, options, &cas));
}

std::optional<RecoveryOutcome> recover_latest(io::Env& env,
                                              const std::string& dir) {
  return recover_latest(env, dir, RecoveryOptions{});
}

std::optional<RecoveryOutcome> recover_latest_any(
    const std::vector<io::Env*>& replicas, const std::string& dir) {
  std::optional<RecoveryOutcome> best;
  std::vector<std::string> notes;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    auto outcome = recover_latest(*replicas[i], dir);
    if (!outcome) {
      notes.push_back("replica " + std::to_string(i) +
                      ": no usable checkpoint");
      continue;
    }
    outcome->notes.push_back("recovered from replica " + std::to_string(i));
    if (!best || outcome->step > best->step) {
      best = std::move(outcome);
    }
  }
  if (best) {
    best->notes.insert(best->notes.end(), notes.begin(), notes.end());
  }
  return best;
}

std::optional<RecoveryOutcome> recover_latest(io::Env& env,
                                              const std::string& dir,
                                              const RecoveryOptions& options) {
  std::vector<std::string> notes;
  // Flight recorder: every structured event is appended here in order
  // (and mirrored to the tracer when one is mounted), accumulating
  // across failed candidates exactly like the prose notes.
  std::vector<FlightEvent> events;
  const auto record =
      [&](std::string name,
          std::vector<std::pair<std::string, std::string>> kv) {
        if (options.tracer != nullptr) {
          std::vector<obs::Tracer::Arg> args;
          args.reserve(kv.size());
          for (const auto& [k, v] : kv) {
            args.push_back({k, obs::Tracer::json_string(v)});
          }
          options.tracer->instant(name, "recovery", std::move(args));
        }
        events.push_back(FlightEvent{std::move(name), std::move(kv)});
      };
  obs::Span root(options.tracer, "recover_latest", "recovery");

  // On a tiered Env, report how much of the recovery was served by the
  // capacity tier (and promoted back read-through): the hot-hit vs
  // cold-promote asymmetry is the tier policy's recovery-latency cost.
  auto* tiered = dynamic_cast<tier::TieredEnv*>(&env);
  const std::uint64_t cold_reads_before = tiered ? tiered->cold_reads() : 0;
  const std::uint64_t cold_bytes_before =
      tiered ? tiered->cold_read_bytes() : 0;
  const std::uint64_t promoted_before = tiered ? tiered->promoted_files() : 0;
  const std::size_t notes_before_scan = notes.size();
  const auto entries = candidates(env, dir, notes);
  record("manifest.scan",
         {{"candidates", std::to_string(entries.size())},
          {"source", notes.size() == notes_before_scan && !entries.empty()
                         ? "manifest"
                         : "rescan-or-damaged"}});

  // One chunk store for all candidate attempts (lazy: packfiles are
  // only scanned if some candidate actually has extern sections).
  ChunkStore cas(env, dir);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    obs::Span attempt(options.tracer, "candidate", "recovery", root.id());
    attempt.note("id", it->id);
    try {
      RecoveryOutcome outcome;
      record("candidate.try", {{"id", std::to_string(it->id)}});
      std::size_t chain_depth = 0;
      std::vector<Section> sections =
          resolve_chain(env, dir, it->id, options, &cas, &chain_depth);
      record("chain.resolved",
             {{"id", std::to_string(it->id)},
              {"depth", std::to_string(chain_depth)},
              {"sections", std::to_string(sections.size())}});
      // Redo-only journal replay: fold the candidate's delta journal
      // (wal-<id>.qwal) into its resolved sections, up to the last
      // record whose frame CRC validates; torn tails are truncated.
      // Replay is read-only and deterministic, so running it again after
      // an interrupted recovery reproduces the identical state. A replay
      // that yields an unloadable state falls back to the base sections
      // — the journal must never make recovery worse.
      if (env.exists(dir + "/" + wal_file_name(it->id))) {
        std::map<SectionKind, Bytes> resolved;
        for (const Section& s : sections) {
          resolved[s.kind] = s.payload;
        }
        if (const auto replay = replay_wal(env, dir, it->id, resolved)) {
          std::vector<Section> replayed;
          replayed.reserve(resolved.size());
          for (auto& [kind, payload] : resolved) {
            replayed.push_back(Section{.kind = kind,
                                       .codec = codec::CodecId::kRaw,
                                       .flags = 0,
                                       .payload = std::move(payload)});
          }
          try {
            outcome.state = sections_to_state(replayed);
            sections.clear();
            record("wal.replay",
                   {{"id", std::to_string(it->id)},
                    {"records", std::to_string(replay->records_applied)},
                    {"step", std::to_string(replay->step)},
                    {"torn_bytes", std::to_string(replay->torn_bytes)}});
            notes.push_back(
                wal_file_name(it->id) + ": replayed " +
                std::to_string(replay->records_applied) +
                " record(s) to step " + std::to_string(replay->step) +
                (replay->torn_bytes > 0
                     ? " (" + std::to_string(replay->torn_bytes) +
                           " torn byte(s) truncated)"
                     : ""));
          } catch (const std::exception& e) {
            record("wal.replay_unloadable",
                   {{"id", std::to_string(it->id)}, {"error", e.what()}});
            notes.push_back(wal_file_name(it->id) +
                            ": replayed state unloadable (" + e.what() +
                            "), using the base checkpoint");
          }
        }
      }
      if (!sections.empty()) {
        outcome.state = sections_to_state(sections);
      }
      outcome.checkpoint_id = it->id;
      outcome.step = outcome.state.step;
      outcome.notes = notes;
      if (tiered && tiered->cold_reads() > cold_reads_before) {
        record("tier.promoted",
               {{"cold_reads",
                 std::to_string(tiered->cold_reads() - cold_reads_before)},
                {"cold_bytes", std::to_string(tiered->cold_read_bytes() -
                                              cold_bytes_before)},
                {"promoted",
                 std::to_string(tiered->promoted_files() - promoted_before)}});
        outcome.notes.push_back(
            "tier: " +
            std::to_string(tiered->cold_reads() - cold_reads_before) +
            " cold read(s), " +
            std::to_string(tiered->cold_read_bytes() - cold_bytes_before) +
            " bytes, " +
            std::to_string(tiered->promoted_files() - promoted_before) +
            " object(s) promoted hot");
      }
      record("recovered", {{"id", std::to_string(it->id)},
                           {"step", std::to_string(outcome.step)}});
      outcome.events = std::move(events);
      return outcome;
    } catch (const std::exception& e) {
      record("candidate.reject",
             {{"id", std::to_string(it->id)}, {"error", e.what()}});
      notes.push_back("ckpt " + std::to_string(it->id) + ": " + e.what());
    }
  }
  return std::nullopt;
}

}  // namespace qnn::ckpt
