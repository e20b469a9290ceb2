// Seeded training-state generator with an oracle.
//
// One generator serves every workload. It produces the TrainingState a
// QNN trainer would hand to the checkpointer at each step:
//   * params and Adam moments: a seeded base vector plus a small seeded
//     perturbation that is redrawn every step (optimiser-style drift in
//     the low mantissa bits; a step's value does not depend on the
//     previous step's, so any step is reachable directly);
//   * RNG state, a data-loader permutation and cursor;
//   * a loss history that grows by one double per step;
//   * an optional simulator snapshot of `sim_bytes`, cut into
//     `chunk_bytes` chunks. Every chunk belongs to one of
//     round(1 / rewrite_frac) seeded groups, and each step rewrites every
//     chunk of one group with fresh bytes; every round of that many steps
//     rewrites each group once, in a seeded order. `zero_frac` of each
//     chunk is zero (sparse amplitudes); the rest is incompressible.
//
// advance() moves a state one step forward cheaply (it rewrites only the
// chosen group), and state_at() rebuilds the state of any step from
// scratch. The two are independent code paths over the same seeded
// functions, so state_at() is the oracle every recovered or restored
// state is compared with, bit-exact.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "qnn/training_state.hpp"

namespace perfbench {

struct GenConfig {
  std::uint64_t seed = 1;
  std::size_t n_params = 2048;
  std::size_t perm_size = 256;
  std::size_t sim_bytes = 0;  ///< 0 = no simulator snapshot
  std::size_t chunk_bytes = 64 * 1024;
  double rewrite_frac = 0.125;  ///< share of chunks rewritten per step
  double zero_frac = 0.0;       ///< share of each chunk that is zero
};

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline std::uint64_t hash4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                           std::uint64_t d) {
  return mix64(a ^ mix64(b ^ mix64(c ^ mix64(d))));
}

/// Uniform in [-1, 1).
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

class StateGen {
 public:
  explicit StateGen(GenConfig cfg) : cfg_(cfg) {
    if (cfg_.sim_bytes % cfg_.chunk_bytes != 0) {
      throw std::invalid_argument("sim_bytes must be a multiple of chunk_bytes");
    }
    groups_ = static_cast<std::size_t>(
        std::max(1.0, std::round(1.0 / cfg_.rewrite_frac)));
    // Seeded chunk -> group map: a shuffle dealt round-robin, so every
    // group holds the same number of chunks (+-1).
    const std::size_t n = n_chunks();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    shuffle(order, hash4(cfg_.seed, 0x6772, 0, 0));
    chunk_group_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      chunk_group_[order[i]] = i % groups_;
    }
  }

  [[nodiscard]] std::size_t n_chunks() const {
    return cfg_.sim_bytes / cfg_.chunk_bytes;
  }
  /// The group whose chunks step `s` (>= 1) rewrites. Steps come in
  /// rounds of `groups_`; each round rewrites every group once, in a
  /// seeded order, so no chunk stays unchanged for more than two rounds.
  [[nodiscard]] std::size_t step_group(std::uint64_t s) const {
    const std::uint64_t round = (s - 1) / groups_;
    std::vector<std::size_t> order(groups_);
    for (std::size_t g = 0; g < groups_; ++g) {
      order[g] = g;
    }
    shuffle(order, hash4(cfg_.seed, 0x7374, round, 0));
    return order[(s - 1) % groups_];
  }

  /// The oracle: the state at step `s`, built from scratch.
  [[nodiscard]] qnn::qnn::TrainingState state_at(std::uint64_t s) const {
    qnn::qnn::TrainingState st;
    st.optimizer_name = "adam";
    st.workload_tag = "perfbench";
    st.circuit_fingerprint = hash4(cfg_.seed, 0x6670, 0, 0);
    set_step_fields(st, s);
    st.loss_history.reserve(s);
    for (std::uint64_t t = 0; t < s; ++t) {
      st.loss_history.push_back(loss(t));
    }
    st.epoch = s / cfg_.perm_size;
    st.permutation = permutation(st.epoch);
    st.simulator_state.resize(cfg_.sim_bytes);
    // Last step <= s that rewrote each group (0 = initial content).
    std::vector<std::uint64_t> version(groups_, 0);
    std::size_t found = 0;
    for (std::uint64_t t = s; t >= 1 && found < groups_; --t) {
      std::uint64_t& v = version[step_group(t)];
      if (v == 0) {
        v = t;
        ++found;
      }
    }
    for (std::size_t c = 0; c < n_chunks(); ++c) {
      fill_chunk(st.simulator_state, c, version[chunk_group_[c]]);
    }
    return st;
  }

  /// Moves `st` (the state at step s - 1) to step `s`.
  void advance(qnn::qnn::TrainingState& st, std::uint64_t s) const {
    if (st.step + 1 != s) {
      throw std::logic_error("advance: steps must be consecutive");
    }
    set_step_fields(st, s);
    st.loss_history.push_back(loss(s - 1));
    const std::uint64_t epoch = s / cfg_.perm_size;
    if (epoch != st.epoch) {
      st.epoch = epoch;
      st.permutation = permutation(epoch);
    }
    const std::size_t g = step_group(s);
    for (std::size_t c = 0; c < n_chunks(); ++c) {
      if (chunk_group_[c] == g) {
        fill_chunk(st.simulator_state, c, s);
      }
    }
  }

 private:
  /// Params, moments, RNG words, step and cursor: everything that is
  /// redrawn from (seed, step) alone.
  void set_step_fields(qnn::qnn::TrainingState& st, std::uint64_t s) const {
    const std::size_t n = cfg_.n_params;
    st.step = s;
    st.cursor = s % cfg_.perm_size;
    st.params.resize(n);
    std::vector<double> m(n);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double base = 3.0 * unit(hash4(cfg_.seed, 0x7062, i, 0));
      st.params[i] = base + 1e-3 * unit(hash4(cfg_.seed, 0x7064, i, s));
      m[i] = 1e-2 * unit(hash4(cfg_.seed, 0x6d31, i, s));
      v[i] = 1e-4 * (1.5 + unit(hash4(cfg_.seed, 0x7632, i, s)));
    }
    st.optimizer_state.resize(sizeof(std::uint64_t) + 2 * n * sizeof(double));
    std::uint8_t* out = st.optimizer_state.data();
    std::memcpy(out, &s, sizeof(s));
    std::memcpy(out + sizeof(s), m.data(), n * sizeof(double));
    std::memcpy(out + sizeof(s) + n * sizeof(double), v.data(),
                n * sizeof(double));
    st.rng_state.resize(4 * sizeof(std::uint64_t));
    for (std::size_t k = 0; k < 4; ++k) {
      const std::uint64_t w = hash4(cfg_.seed, 0x726e, s, k);
      std::memcpy(st.rng_state.data() + k * sizeof(w), &w, sizeof(w));
    }
  }

  [[nodiscard]] double loss(std::uint64_t t) const {
    return 1.0 / (1.0 + 1e-3 * static_cast<double>(t)) +
           1e-3 * unit(hash4(cfg_.seed, 0x6c6f, t, 0));
  }

  [[nodiscard]] std::vector<std::uint32_t> permutation(
      std::uint64_t epoch) const {
    std::vector<std::uint32_t> p(cfg_.perm_size);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::uint32_t>(i);
    }
    shuffle(p, hash4(cfg_.seed, 0x7065, epoch, 0));
    return p;
  }

  template <typename T>
  static void shuffle(std::vector<T>& v, std::uint64_t key) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = hash4(key, i, 0, 0) % i;
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Chunk `c` as written at step `version`: a zero tail of zero_frac,
  /// seeded incompressible words before it.
  void fill_chunk(qnn::util::Bytes& sim, std::size_t c,
                  std::uint64_t version) const {
    std::uint8_t* out = sim.data() + c * cfg_.chunk_bytes;
    const auto dense = static_cast<std::size_t>(
        static_cast<double>(cfg_.chunk_bytes) * (1.0 - cfg_.zero_frac));
    const std::uint64_t key = hash4(cfg_.seed, 0x7369, c, version);
    std::size_t off = 0;
    for (std::uint64_t w = 0; off + 8 <= dense; ++w, off += 8) {
      const std::uint64_t word = mix64(key + w * 0x9E3779B97F4A7C15ULL);
      std::memcpy(out + off, &word, 8);
    }
    std::memset(out + off, 0, cfg_.chunk_bytes - off);
  }

  GenConfig cfg_;
  std::size_t groups_ = 1;
  std::vector<std::size_t> chunk_group_;
};

}  // namespace perfbench
