// Mapping between qnn::TrainingState and checkpoint sections.
//
// Each logical component of the training state becomes exactly one
// section, so strategies can include/exclude and delta-encode components
// independently, and the T1 inventory can report true per-component sizes.
#pragma once

#include "ckpt/format.hpp"
#include "qnn/training_state.hpp"

namespace qnn::ckpt {

/// Encodes one component of `state` into a raw section payload.
Bytes encode_section_payload(SectionKind kind,
                             const qnn::TrainingState& state);

/// Builds the section list for `state`. When `include_simulator` is false
/// the (potentially huge) simulator snapshot is omitted. `codec` is
/// recorded on every section.
std::vector<Section> state_to_sections(const qnn::TrainingState& state,
                                       bool include_simulator,
                                       codec::CodecId codec);

/// Reassembles a TrainingState from fully-resolved (non-delta) sections.
/// Throws CorruptCheckpoint when required sections are missing or
/// malformed. The simulator section is optional. The byte payloads
/// (optimizer, RNG, simulator) are moved out of `sections`, so callers
/// that pass an rvalue pay no copy of them.
qnn::TrainingState sections_to_state(std::vector<Section> sections);

}  // namespace qnn::ckpt
