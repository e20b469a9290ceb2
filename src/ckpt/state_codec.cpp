#include "ckpt/state_codec.hpp"

#include <utility>

namespace qnn::ckpt {

namespace {
// v2 added the circuit fingerprint; v1 files decode with fingerprint 0.
constexpr std::uint32_t kMetaVersion = 2;

Bytes encode_meta(const qnn::TrainingState& s) {
  Bytes out;
  util::put_le<std::uint32_t>(out, kMetaVersion);
  util::put_string(out, s.workload_tag);
  util::put_string(out, s.optimizer_name);
  util::put_le<std::uint64_t>(out, s.step);
  util::put_le<std::uint64_t>(out, s.epoch);
  util::put_le<std::uint64_t>(out, s.cursor);
  util::put_le<std::uint64_t>(out, s.circuit_fingerprint);
  return out;
}

void decode_meta(ByteSpan payload, qnn::TrainingState& s) {
  std::size_t off = 0;
  const auto version = util::get_le<std::uint32_t>(payload, off);
  if (version != 1 && version != kMetaVersion) {
    throw CorruptCheckpoint("meta section: bad version");
  }
  s.workload_tag = util::get_string(payload, off);
  s.optimizer_name = util::get_string(payload, off);
  s.step = util::get_le<std::uint64_t>(payload, off);
  s.epoch = util::get_le<std::uint64_t>(payload, off);
  s.cursor = util::get_le<std::uint64_t>(payload, off);
  s.circuit_fingerprint =
      version >= 2 ? util::get_le<std::uint64_t>(payload, off) : 0;
}

Bytes encode_cursor(const qnn::TrainingState& s) {
  Bytes out;
  util::put_vector(out, s.permutation);
  return out;
}
}  // namespace

Bytes encode_section_payload(SectionKind kind,
                             const qnn::TrainingState& state) {
  Bytes out;
  switch (kind) {
    case SectionKind::kMeta:
      return encode_meta(state);
    case SectionKind::kParams:
      util::put_vector(out, state.params);
      return out;
    case SectionKind::kOptimizer:
      return state.optimizer_state;
    case SectionKind::kRng:
      return state.rng_state;
    case SectionKind::kDataCursor:
      return encode_cursor(state);
    case SectionKind::kLossHistory:
      util::put_vector(out, state.loss_history);
      return out;
    case SectionKind::kSimulator:
      return state.simulator_state;
  }
  throw std::invalid_argument("encode_section_payload: unknown kind");
}

std::vector<Section> state_to_sections(const qnn::TrainingState& state,
                                       bool include_simulator,
                                       codec::CodecId codec) {
  static constexpr SectionKind kAlways[] = {
      SectionKind::kMeta,        SectionKind::kParams,
      SectionKind::kOptimizer,   SectionKind::kRng,
      SectionKind::kDataCursor,  SectionKind::kLossHistory,
  };
  std::vector<Section> sections;
  for (SectionKind kind : kAlways) {
    sections.push_back(Section{.kind = kind,
                               .codec = codec,
                               .flags = 0,
                               .payload = encode_section_payload(kind, state)});
  }
  if (include_simulator && !state.simulator_state.empty()) {
    sections.push_back(
        Section{.kind = SectionKind::kSimulator,
                .codec = codec,
                .flags = 0,
                .payload = encode_section_payload(SectionKind::kSimulator,
                                                  state)});
  }
  return sections;
}

qnn::TrainingState sections_to_state(std::vector<Section> sections) {
  qnn::TrainingState state;
  bool have_meta = false, have_params = false, have_opt = false,
       have_rng = false, have_cursor = false, have_hist = false;

  for (Section& s : sections) {
    if (s.is_delta()) {
      throw CorruptCheckpoint(
          "sections_to_state: unresolved delta section " +
          section_kind_name(s.kind));
    }
    std::size_t off = 0;
    switch (s.kind) {
      case SectionKind::kMeta:
        decode_meta(s.payload, state);
        have_meta = true;
        break;
      case SectionKind::kParams:
        state.params = util::get_vector<double>(s.payload, off);
        have_params = true;
        break;
      case SectionKind::kOptimizer:
        state.optimizer_state = std::move(s.payload);
        have_opt = true;
        break;
      case SectionKind::kRng:
        state.rng_state = std::move(s.payload);
        have_rng = true;
        break;
      case SectionKind::kDataCursor:
        state.permutation = util::get_vector<std::uint32_t>(s.payload, off);
        have_cursor = true;
        break;
      case SectionKind::kLossHistory:
        state.loss_history = util::get_vector<double>(s.payload, off);
        have_hist = true;
        break;
      case SectionKind::kSimulator:
        state.simulator_state = std::move(s.payload);
        break;
    }
  }

  if (!have_meta || !have_params || !have_opt || !have_rng || !have_cursor ||
      !have_hist) {
    throw CorruptCheckpoint("sections_to_state: required section missing");
  }
  return state;
}

}  // namespace qnn::ckpt
