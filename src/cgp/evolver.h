// (1 + lambda) evolution strategy over CGP genotypes (Sec. III-C).
//
// Each generation creates lambda mutants of the parent; the best mutant
// replaces the parent if it is *not worse* — accepting equal fitness is
// CGP's neutral drift and is essential for escaping plateaus.  Fitness
// follows the paper's Eq. 1: a candidate is feasible when its error is
// within the target threshold, feasible candidates are ranked by area, and
// infeasible ones rank below every feasible candidate (ranked among
// themselves by error so a search seeded out of the feasible region can
// climb back in).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "cgp/genotype.h"
#include "circuit/netlist.h"
#include "support/rng.h"

namespace axc::cgp {

/// Outcome of evaluating one candidate.
struct evaluation {
  double error{0.0};  ///< e.g. WMED; only ordering matters when infeasible
  double area{0.0};   ///< minimization objective when feasible
  bool feasible{false};
};

/// Strict-weak "a is strictly better than b" per Eq. 1 (+ error tie-break).
[[nodiscard]] bool better(const evaluation& a, const evaluation& b);

/// "a can replace b" — better or equal (neutral drift acceptance).
[[nodiscard]] bool not_worse(const evaluation& a, const evaluation& b);

/// Genotype-native incremental evaluation contract (see cone_program): the
/// evolver hands the evaluator the parent genotype and each mutant's dirty
/// gene list instead of a materialized netlist, so the evaluator can keep
/// the parent's compiled sim_program/cone schedule across the lambda
/// mutants of a generation and patch rather than recompile.
///
/// Contract: evaluate_child(parent, child, dirty) must return exactly what
/// evaluate_and_bind(child) would — the incremental path is a pure
/// throughput optimization, bit-identical to full recompilation.
class incremental_evaluator {
 public:
  virtual ~incremental_evaluator() = default;

  /// Compiles `parent`'s cone schedule and fully evaluates it; `parent`
  /// becomes the bound base for evaluate_child().
  virtual evaluation evaluate_and_bind(const genotype& parent) = 0;

  /// Rebinds to a new parent whose evaluation is already known (an accepted
  /// child) — compile only, no re-evaluation.
  virtual void rebind(const genotype& parent, const evaluation& eval) = 0;

  /// Evaluates a mutant of the bound parent.  `dirty` lists the flat gene
  /// indices touched by mutation (genotype::mutate(rng&, dirty)); the
  /// binding is left undisturbed.
  virtual evaluation evaluate_child(const genotype& parent,
                                    const genotype& child,
                                    std::span<const std::uint32_t> dirty) = 0;
};

class evolver {
 public:
  using evaluate_fn = std::function<evaluation(const circuit::netlist&)>;
  /// Creates one evaluator instance per worker thread.  Evaluators commonly
  /// carry mutable scratch state (e.g. metrics::wmed_evaluator), so the
  /// parallel evolver never shares one across threads.
  using evaluator_factory = std::function<evaluate_fn()>;
  /// Called whenever the parent strictly improves.
  using progress_fn =
      std::function<void(std::size_t iteration, const evaluation&)>;
  /// Called after every generation with the parent's (best-so-far) score —
  /// same shape as progress_fn, distinct name for call-site clarity.
  using generation_fn = progress_fn;
  /// Cooperative cancellation: polled once per generation, before mutating.
  using stop_fn = std::function<bool()>;

  struct options {
    std::size_t iterations{10000};
    bool neutral_drift{true};
    /// Among feasible candidates of equal area, prefer lower error.  Eq. 1
    /// leaves equal-fitness ordering open; biasing the neutral drift toward
    /// low error keeps the error budget spent on many small deviations
    /// instead of a few catastrophic ones, which matters at short search
    /// budgets (see DESIGN.md ablations).
    bool error_tiebreak{false};
    progress_fn on_improvement{};
    generation_fn on_generation{};
    /// Returning true ends the run before the next generation's mutation
    /// draws; the best-so-far result is returned with `stopped` set.  A
    /// stopped run consumed a prefix of the full run's RNG stream, so
    /// restarting the search from scratch (not from the stopped parent) is
    /// what reproduces the uninterrupted result.
    stop_fn should_stop{};
  };

  struct run_result {
    genotype best;
    evaluation best_eval;
    std::size_t iterations{0};
    std::size_t evaluations{0};
    std::size_t improvements{0};
    std::size_t neutral_moves{0};
    bool stopped{false};  ///< options::should_stop ended the run early
  };

  /// Runs the (1 + lambda) ES from `seed`; lambda and mutation strength
  /// come from the genotype's parameters.  Candidates are decoded with
  /// genotype::decode_cone(), so evaluators only ever see the active cone
  /// (function-identical to the full decode; area metrics that mask
  /// inactive gates are unaffected).
  static run_result run(const genotype& seed, const evaluate_fn& evaluate,
                        const options& opts, rng& gen);

  /// Parallel (1 + lambda): each generation's mutants are decoded and
  /// evaluated across `threads` workers (capped by lambda), each offspring
  /// slot owning its own evaluator from `factory`.  Mutation draws happen
  /// serially on `gen` and the offspring reduction scans in mutation order,
  /// so for a fixed seed and deterministic evaluators the result is
  /// bit-identical to the serial run().
  static run_result run_parallel(const genotype& seed,
                                 const evaluator_factory& factory,
                                 const options& opts, std::size_t threads,
                                 rng& gen);

  using incremental_factory =
      std::function<std::unique_ptr<incremental_evaluator>()>;

  /// (1 + lambda) over the genotype-native incremental pipeline: mutants
  /// are never decoded to netlists; each evaluator keeps the parent's
  /// compiled schedule and receives (parent, child, dirty genes).  With
  /// threads > 1 every offspring slot owns one evaluator (rebinding to a
  /// new parent lazily on first use), with threads == 1 a single evaluator
  /// serves all slots; both orderings reproduce the same result bit for
  /// bit, and — given a conforming evaluator — the same result as run()
  /// over full per-mutant recompilation.
  static run_result run_incremental(const genotype& seed,
                                    const incremental_factory& factory,
                                    const options& opts, std::size_t threads,
                                    rng& gen);
};

}  // namespace axc::cgp
