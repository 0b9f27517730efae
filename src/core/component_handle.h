// Runtime-selectable component classes behind one non-template API.
//
// The search machinery is templated over metrics::component_spec so each
// component class (multipliers, adders, future MACs/squarers) compiles to
// its own fast path — but a session, a checkpoint file or a CLI flag wants
// to pick the component at runtime.  component_handle type-erases one
// basic_approximation_config<Spec> together with the lazily-built shared
// evaluator cache for its (spec, distribution): copies of a handle share
// the same cache, so every job a search_session schedules through it reuses
// one set of exact-result planes (built once per session, not once per
// run — the cache_builds() counter makes that reuse testable).
//
// component_registry maps component names ("mult", "adder", ...) to
// factories over the non-template component_options knobs; new component
// classes register a factory and become reachable from strings (checkpoint
// headers, config files) without touching any caller.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/wmed_approximator.h"
#include "metrics/compiled_table.h"
#include "support/assert.h"

namespace axc::core {

/// Default registry name of a spec ("mult", "adder"); specialize alongside
/// new component_spec types.
template <metrics::component_spec Spec>
struct component_traits;
template <>
struct component_traits<metrics::mult_spec> {
  static constexpr const char* name = "mult";
};
template <>
struct component_traits<metrics::adder_spec> {
  static constexpr const char* name = "adder";
};

class component_handle {
 public:
  component_handle() = default;

  /// False for a default-constructed handle or an unknown registry name;
  /// every other accessor requires a non-empty handle (AXC_EXPECTS).
  [[nodiscard]] explicit operator bool() const { return impl_ != nullptr; }

  [[nodiscard]] const std::string& name() const { return get().name(); }
  [[nodiscard]] unsigned width() const { return get().width(); }
  /// Input/output counts a seed netlist for this component must have.
  [[nodiscard]] std::size_t seed_inputs() const {
    return get().seed_inputs();
  }
  [[nodiscard]] std::size_t seed_outputs() const {
    return get().seed_outputs();
  }
  [[nodiscard]] std::uint64_t rng_seed() const { return get().rng_seed(); }
  [[nodiscard]] std::size_t iterations() const {
    return get().iterations();
  }
  /// The wrapped config's runs_per_target (a sweep_plan may override it).
  [[nodiscard]] std::size_t runs_per_target() const {
    return get().runs_per_target();
  }

  /// One CGP run (see core::run_search_job): nullopt iff cancelled via
  /// hooks.should_stop.  Thread-safe; concurrent jobs share the cache.
  [[nodiscard]] std::optional<evolved_design> run_job(
      const circuit::netlist& seed, double target, std::size_t run_index,
      const search_hooks& hooks = {}) const {
    return get().run_job(seed, target, run_index, hooks);
  }

  /// How many times this handle (family — copies share the counter) built
  /// its shared evaluator cache.  A session-long sweep must report 1.
  [[nodiscard]] std::size_t cache_builds() const {
    return get().cache_builds();
  }

  /// Exhaustive behavioural characterization of `nl` under this
  /// component's spec: decoded results for every operand-pattern pair,
  /// entry[(b << w) | a] (the compiled-table fast path).  What the result
  /// store publishes under kind "table", keyed by fingerprint().
  [[nodiscard]] std::vector<std::int64_t> characterize(
      const circuit::netlist& nl) const {
    return get().characterize(nl);
  }

  /// Hash of every result-affecting config knob (spec shape, distribution,
  /// search budget, RNG seed, function set, tie-break policy) — NOT of the
  /// bit-identical execution knobs (threads, incremental).  Checkpoints
  /// embed this so resuming against a subtly different search is rejected
  /// instead of silently mixing incompatible jobs.
  [[nodiscard]] std::uint64_t fingerprint() const {
    return get().fingerprint();
  }

  template <metrics::component_spec Spec>
  [[nodiscard]] static component_handle wrap(
      basic_approximation_config<Spec> config, std::string name,
      wmed_shared_cache<Spec> cache = nullptr) {
    component_handle handle;
    handle.impl_ = std::make_shared<model<Spec>>(std::move(config),
                                                 std::move(name),
                                                 std::move(cache));
    return handle;
  }

 private:
  struct interface;

  /// Loud diagnostic instead of a null dereference on empty handles.
  [[nodiscard]] const interface& get() const {
    AXC_EXPECTS(impl_ != nullptr);
    return *impl_;
  }

  struct interface {
    virtual ~interface() = default;
    [[nodiscard]] virtual const std::string& name() const = 0;
    [[nodiscard]] virtual unsigned width() const = 0;
    [[nodiscard]] virtual std::size_t seed_inputs() const = 0;
    [[nodiscard]] virtual std::size_t seed_outputs() const = 0;
    [[nodiscard]] virtual std::uint64_t rng_seed() const = 0;
    [[nodiscard]] virtual std::size_t iterations() const = 0;
    [[nodiscard]] virtual std::size_t runs_per_target() const = 0;
    [[nodiscard]] virtual std::optional<evolved_design> run_job(
        const circuit::netlist& seed, double target, std::size_t run_index,
        const search_hooks& hooks) const = 0;
    [[nodiscard]] virtual std::size_t cache_builds() const = 0;
    [[nodiscard]] virtual std::vector<std::int64_t> characterize(
        const circuit::netlist& nl) const = 0;
    [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
  };

  template <metrics::component_spec Spec>
  struct model final : interface {
    model(basic_approximation_config<Spec> cfg, std::string n,
          wmed_shared_cache<Spec> pre_built)
        : config(std::move(cfg)),
          name_(std::move(n)),
          cache(std::move(pre_built)) {
      finalize_config(config);
    }

    [[nodiscard]] const std::string& name() const override { return name_; }
    [[nodiscard]] unsigned width() const override {
      return config.spec.width;
    }
    [[nodiscard]] std::size_t seed_inputs() const override {
      return 2 * config.spec.width;
    }
    [[nodiscard]] std::size_t seed_outputs() const override {
      return config.spec.result_bits();
    }
    [[nodiscard]] std::uint64_t rng_seed() const override {
      return config.rng_seed;
    }
    [[nodiscard]] std::size_t iterations() const override {
      return config.iterations;
    }
    [[nodiscard]] std::size_t runs_per_target() const override {
      return config.runs_per_target;
    }

    [[nodiscard]] std::optional<evolved_design> run_job(
        const circuit::netlist& seed, double target, std::size_t run_index,
        const search_hooks& hooks) const override {
      return run_search_job(config, acquire_cache(), seed, target,
                            run_index, hooks);
    }

    [[nodiscard]] std::size_t cache_builds() const override {
      std::scoped_lock lock(mutex);
      return builds;
    }

    [[nodiscard]] std::vector<std::int64_t> characterize(
        const circuit::netlist& nl) const override {
      return metrics::result_table_wide(nl, config.spec);
    }

    [[nodiscard]] std::uint64_t fingerprint() const override {
      // FNV-1a-style fold over the knobs that change search results.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
      };
      mix(config.spec.width);
      mix(config.spec.result_bits());
      mix(static_cast<std::uint64_t>(config.spec.result_is_signed()));
      mix(config.iterations);
      mix(config.extra_columns);
      mix(config.max_mutations);
      mix(config.lambda);
      mix(config.rng_seed);
      mix(static_cast<std::uint64_t>(config.error_tiebreak));
      for (std::size_t a = 0; a < config.distribution.size(); ++a) {
        mix(std::bit_cast<std::uint64_t>(config.distribution[a]));
      }
      // The cell library drives area estimates and therefore selection:
      // fold in the electrical parameters of every usable gate.
      for (const circuit::gate_fn fn : config.function_set) {
        mix(static_cast<std::uint64_t>(fn));
        const tech::cell_params& cell = config.library->cell(fn);
        mix(std::bit_cast<std::uint64_t>(cell.area_um2));
        mix(std::bit_cast<std::uint64_t>(cell.delay_ps));
        mix(std::bit_cast<std::uint64_t>(cell.toggle_energy_fj));
        mix(std::bit_cast<std::uint64_t>(cell.leakage_nw));
      }
      return h;
    }

    /// Builds the shared evaluator tables on first use, then hands the same
    /// immutable copy to every subsequent job.
    [[nodiscard]] wmed_shared_cache<Spec> acquire_cache() const {
      std::scoped_lock lock(mutex);
      if (!cache) {
        cache = metrics::basic_wmed_evaluator<Spec>::make_shared_state(
            config.spec, config.distribution);
        ++builds;
      }
      return cache;
    }

    basic_approximation_config<Spec> config;
    std::string name_;
    mutable std::mutex mutex;
    mutable wmed_shared_cache<Spec> cache;
    mutable std::size_t builds{0};
  };

  std::shared_ptr<const interface> impl_;
};

/// Wraps a typed config (optionally with an already-built evaluator cache,
/// e.g. a basic_wmed_approximator's) under the spec's default name.
template <metrics::component_spec Spec>
[[nodiscard]] component_handle make_component(
    basic_approximation_config<Spec> config,
    wmed_shared_cache<Spec> cache = nullptr) {
  return component_handle::wrap(std::move(config),
                                component_traits<Spec>::name,
                                std::move(cache));
}

/// The non-template config knobs shared by every component class; registry
/// factories translate these into the typed basic_approximation_config.
/// (function_set stays at the spec default; wrap a typed config directly
/// for full control.)
struct component_options {
  unsigned width{8};
  bool is_signed{false};  ///< ignored by components without a signed form
  dist::pmf distribution{};
  std::size_t iterations{20000};
  std::size_t runs_per_target{1};
  std::size_t extra_columns{64};
  unsigned max_mutations{5};
  std::size_t lambda{4};
  std::size_t threads{1};
  bool error_tiebreak{true};
  bool incremental{true};
  /// Scan kernel backend (bit-identical execution knob, like `threads`).
  simd::level simd{simd::level::automatic};
  std::uint64_t rng_seed{1};
  const tech::cell_library* library{&tech::cell_library::nangate45_like()};
};

/// Name -> factory registry; "mult" and "adder" are pre-registered.
class component_registry {
 public:
  using factory = std::function<component_handle(const component_options&)>;

  static component_registry& instance();

  /// Registers (or replaces) a factory under `name`.
  void register_component(std::string name, factory make);

  /// Empty handle (operator bool false) for unknown names.
  [[nodiscard]] component_handle make(
      const std::string& name, const component_options& options = {}) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  component_registry();

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, factory>> factories_;
};

}  // namespace axc::core
