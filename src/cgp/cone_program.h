// Genotype-native compiled cone schedule with incremental patching — the
// evaluation pipeline of the CGP search without the per-mutant netlist
// round-trip.
//
// PR 1 made the WMED sweep itself fast; the remaining per-mutant cost was
// the pipeline *around* it: genotype::decode_cone() materializes a netlist,
// sim_program::rebuild() re-derives the cone and re-packs a dense slot
// space, both allocating and both repeating work the parent already paid
// for.  cone_program removes that round-trip with four ideas:
//
//  1. *Stable slots.*  The sim_program slot space is the CGP address space
//     itself (inputs, then one slot per grid node), so operand genes ARE
//     slot indices and cone-membership changes never renumber anything.
//     Inactive slots are merely never written — and never read, because an
//     active node's read operands are active by the cone rule, and the
//     executors only read operands their gate function depends on.
//  2. *Table schedule.*  The program runs in sim_program's indexed mode:
//     one step-table entry per grid node plus a packed active-index list
//     (ascending node address = topological order).  A mutant then costs
//     O(dirty) table writes — never a re-emit of the whole step list — and
//     release_child() restores the touched entries from the parent's
//     genes, no journal needed.
//  3. *Reference-counted membership screen.*  bind() counts, per node, the
//     read-edges from active nodes plus output seeds (refcnt > 0 iff in
//     the cone).  apply() folds each effective edge change into these
//     counts in O(dirty); if no count crosses zero the child's cone
//     provably equals the parent's and the index list is reused outright —
//     the O(nodes) cone walk runs only when a count crossed.
//  4. *Superset execution on pure deactivation.*  When counts only
//     *dropped* to zero (no node gained its first reference) the child's
//     cone is a subset of the parent's; executing the parent's index list
//     is still exact — the dropped gates feed no output — so the walk and
//     repack are skipped and the true membership is derived lazily only if
//     area estimation asks for it (feasible candidates).  Only a mutant
//     that *activates* a node pays mark_cone + repack, and the repack is a
//     flags pack (SIMD compress-store under AVX-512), not a rebuild.
//
// The schedule produced by any path is observably identical to
// sim_program(decode_cone()) — parity-tested in
// tests/test_incremental_eval.cpp — and step_fns() lists the active gate
// functions in emission (node address) order, which lets area estimation
// run FP-identically to tech::estimate_area on the decoded cone netlist.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cgp/genotype.h"
#include "circuit/simulator.h"

namespace axc::cgp {

class cone_program {
 public:
  static constexpr std::size_t lanes = 8;

  /// Full genotype-native compile of `parent`'s active cone; `parent`
  /// becomes the bound base for apply()/release_child().
  void bind(const genotype& parent);

  /// How apply() retargeted the schedule from parent to child.
  enum class delta {
    identical,   ///< phenotype unchanged; schedule untouched
    patched,     ///< cone membership unchanged; table entries updated
    recompiled,  ///< membership changed (node activation or deactivation)
  };

  /// Retargets the schedule to `child`, a copy of the bound parent whose
  /// mutated flat gene indices are listed in `dirty` (from
  /// genotype::mutate(rng&, dirty); duplicates and no-op re-randomizations
  /// are fine).  `parent` must be the genotype passed to the last bind(),
  /// and `child` must outlive the evaluation (step_fns() may read it).
  /// Unless the result is `identical`, call release_child(parent) after
  /// evaluating before the next apply().
  delta apply(const genotype& parent, const genotype& child,
              std::span<const std::uint32_t> dirty);

  /// Ends the last non-identical apply(): restores the child's touched
  /// table entries and reference counts from the parent's genes
  /// (O(dirty)).  The index list is repaired lazily at the next apply().
  void release_child(const genotype& parent);

  [[nodiscard]] circuit::sim_program<lanes>& program() { return program_; }
  /// Active gate functions in emission (node address) order — the cone
  /// netlist's gate list, for netlist-free area estimation.  Valid for the
  /// currently applied child (or the bound parent); built on demand (on
  /// the superset-execution path this derives the child's true
  /// membership, which the sweep itself never needs).
  [[nodiscard]] std::span<const circuit::gate_fn> step_fns();
  /// Steps the next run() executes.  This is the *schedule* length, not
  /// always the true cone size: it is the parent's count while a
  /// deactivation-only child is applied (see idea 4 above), and a
  /// recompiled sibling's count between its release and the next
  /// apply()/bind() (the list is repaired lazily; step_fns() reports the
  /// true gate list in every state).
  [[nodiscard]] std::size_t active_nodes() const {
    return program_.active_count();
  }

 private:
  /// Writes node k's table entry from `g`'s genes.
  void write_step(const genotype& g, std::size_t k);

  circuit::sim_program<lanes> program_;
  std::vector<circuit::gate_fn> fns_;        ///< step_fns() cache
  bool fns_valid_{false};
  std::vector<std::uint8_t> active_;         ///< parent cone flags, per node
  std::vector<std::uint8_t> scratch_flags_;  ///< child cone recompute
  /// Per node: read-edges from active nodes + output seeds (> 0 iff in the
  /// parent's cone).  apply() folds the child's edge deltas in and
  /// release_child() reverts them via ref_journal_.
  std::vector<std::uint32_t> refcnt_;
  std::vector<std::pair<std::uint32_t, std::int32_t>> ref_journal_;
  /// Node / output ids already folded this apply() (mutate() may report
  /// several genes of one node; edge deltas must apply once per node).
  std::vector<std::uint32_t> seen_nodes_;
  std::vector<std::uint32_t> seen_outputs_;
  /// The applied child's dirty gene list (what release_child restores);
  /// empty when the schedule models the bound parent.
  std::vector<std::uint32_t> child_dirty_;
  /// The genotype the schedule currently models (for lazy step_fns()).
  const genotype* applied_child_{nullptr};
  /// The index list reflects a recompiled child's membership, not the
  /// parent's — repack from active_ before the next reuse.
  bool indices_stale_{false};
  /// Superset execution: the child's cone shrank but the parent's index
  /// list is still being executed; step_fns() derives the true membership.
  bool membership_deferred_{false};
};

}  // namespace axc::cgp
