// Bit-parallel netlist simulation.
//
// A single pass over the gate list evaluates 64 input assignments at once:
// every signal carries a 64-bit word whose bit t is the signal's value under
// assignment t.  Exhaustively evaluating an n-input circuit therefore costs
// 2^n / 64 passes — for the paper's 8x8 multipliers (n = 16) that is 1024
// words, i.e. roughly half a million gate operations per candidate, which is
// what makes CGP search with full-input-space error metrics practical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.h"
#include "support/assert.h"
#include "support/simd.h"

namespace axc::circuit {

/// One compiled gate operation of a sim_program schedule.  Slot offsets are
/// premultiplied by the program's lane count W, so the step executors index
/// the slot buffer directly.
struct sim_step {
  gate_fn fn{gate_fn::const0};
  std::uint32_t in0{0};  ///< slot offset, premultiplied by W
  std::uint32_t in1{0};
  std::uint32_t out{0};  ///< slot offset, premultiplied by W
};

/// Executes a compiled step list over a slot buffer, eight lanes per
/// signal (the W == 8 fast path).  Backends live in sim_step_kernels*.cpp
/// (scalar / AVX2 / AVX-512 behind runtime dispatch, same rules as the
/// metrics scan kernels); all are bit-identical.
using sim_steps_fn = void (*)(const sim_step* steps, std::size_t count,
                              std::uint64_t* slots);
/// Same, over a step *table* through an active-index list (the indexed
/// schedules of the genotype-native incremental path).
using sim_steps_indexed_fn = void (*)(const sim_step* table,
                                      const std::uint32_t* indices,
                                      std::size_t count, std::uint64_t* slots);
/// Packs node flags into an ascending active-index list; returns the count.
/// `out` must have room for `count` entries.
using sim_pack_fn = std::size_t (*)(const std::uint8_t* flags,
                                    std::size_t count, std::uint32_t* out);

/// Whether a step-executor backend is compiled in AND runnable here.
[[nodiscard]] bool sim_steps_level_available(simd::level l);
/// automatic -> AXC_SIMD override or best available; explicit levels are
/// clamped down to availability (scalar is always the floor).
[[nodiscard]] simd::level resolve_sim_steps_level(simd::level requested);
/// The executors for a resolved level (scalar fallback, never null).
[[nodiscard]] sim_steps_fn sim_steps_kernel(simd::level resolved);
[[nodiscard]] sim_steps_indexed_fn sim_steps_indexed_kernel(
    simd::level resolved);
[[nodiscard]] sim_pack_fn sim_pack_kernel(simd::level resolved);

/// Reusable simulation scratchpad (one word per signal).  Keeping it outside
/// the call avoids reallocating in the CGP inner loop.
class sim_buffer {
 public:
  std::span<std::uint64_t> prepare(const netlist& nl) {
    words_.resize(nl.num_signals());
    return words_;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Evaluates one 64-assignment block.
/// `inputs[i]` is the word for primary input i; `outputs[o]` receives the
/// word for primary output o.  `scratch` must come from sim_buffer::prepare
/// for this netlist (or have num_signals() elements).
void simulate_block(const netlist& nl, std::span<const std::uint64_t> inputs,
                    std::span<std::uint64_t> outputs,
                    std::span<std::uint64_t> scratch);

/// The canonical exhaustive input pattern: bit t of the returned word for
/// input i within block `block` equals bit i of the assignment index
/// (block*64 + t).  Inputs 0..5 toggle inside a word; higher inputs are
/// constant across a word.
std::uint64_t exhaustive_input_word(std::size_t input_index,
                                    std::size_t block);

/// Exhaustively evaluates a circuit with up to 26 inputs and up to 64
/// outputs.  result[v] holds the packed output word for input assignment v
/// (output o at bit o).  For a 16-input multiplier the result has 65536
/// entries: result[(j << 8) | i] with i = first operand (inputs 0..7).
std::vector<std::uint64_t> evaluate_exhaustive(const netlist& nl);

/// Exhaustive evaluation restricted to the given assignment order is not
/// needed; for sampled workloads use simulate_words below.
///
/// Evaluates the circuit on `count` arbitrary assignments given as
/// *value vectors*: values[k] holds the full input word (input i at bit i)
/// for assignment k.  Outputs are packed the same way.  Used by workload
/// simulation (e.g. operand streams drawn from a distribution).
std::vector<std::uint64_t> simulate_words(
    const netlist& nl, std::span<const std::uint64_t> input_values);

/// Compiled, cone-restricted, wide-lane simulation schedule — the fast path
/// of the CGP search inner loop (see README.md in this directory).
///
/// Compiling a netlist (a) drops every gate outside the transitive fan-in
/// cone of the outputs (most CGP genes are inactive, so this typically cuts
/// gate work severalfold), remapping the survivors onto a dense scratchpad,
/// and (b) lays the scratchpad out as W consecutive 64-bit words per signal,
/// so one pass evaluates W*64 input assignments and the per-gate dispatch
/// cost is amortized over W plain-array bitwise ops that compilers
/// auto-vectorize (SSE2/AVX2/NEON).
///
/// The schedule is rebuildable in place: the CGP inner loop calls rebuild()
/// once per candidate and run() once per W-block chunk, with no allocation
/// after the first candidate of a given size.
///
/// Lane layout: input i of lane-major span `inputs` occupies
/// inputs[i*W .. i*W+W); outputs are packed the same way.  Lane l of every
/// signal carries an independent 64-assignment block, so callers may mix
/// arbitrary blocks in one pass.
///
/// Besides rebuild(netlist), a schedule can be built *manually* against a
/// caller-defined slot space (reset/push_step/set_output_slot) and patched
/// in place (patch_step/patch_output).  This is the genotype-native
/// incremental compile path of the CGP search (cgp::cone_program): slots
/// map 1:1 onto CGP addresses, so a point mutation patches one step instead
/// of recompiling, and cone-membership changes never renumber operands.
/// Manual schedules must keep the topological contract: every slot a step
/// *reads* (per gate_fn operand dependence) is an input slot or the output
/// slot of an earlier step.  Ignored operands may reference unwritten slots;
/// run() never reads them.
template <std::size_t W>
class sim_program {
 public:
  static constexpr std::size_t lanes = W;

  sim_program() = default;
  explicit sim_program(const netlist& nl) { rebuild(nl); }

  /// Recompiles for `nl` (cone-restricted, dense slots), reusing storage.
  void rebuild(const netlist& nl);

  [[nodiscard]] std::size_t num_inputs() const { return num_inputs_; }
  [[nodiscard]] std::size_t num_outputs() const { return output_slots_.size(); }
  /// Gates actually simulated (the active cone; <= nl.num_gates()).
  [[nodiscard]] std::size_t active_gates() const {
    return indexed_ ? active_idx_.size() : steps_.size();
  }

  /// One pass over the active cone: W blocks of 64 assignments.
  /// `inputs` must have num_inputs()*W words, `outputs` num_outputs()*W.
  void run(std::span<const std::uint64_t> inputs,
           std::span<std::uint64_t> outputs);

  /// run() without the output copy: evaluates the schedule and leaves the
  /// results in the slot buffer, to be read lane-major via output_rows().
  /// This is the entry the batched WMED scan consumes — its kernel loads
  /// each candidate output plane straight from the slot row, so the per-pass
  /// num_outputs()*W-word gather disappears.
  void run_in_place(std::span<const std::uint64_t> inputs);

  /// Fills `rows` (num_outputs() entries) with pointers to each output's
  /// W-word lane row inside the slot buffer.  The pointers are stable across
  /// run()/run_in_place() calls — hoist the fill out of a sweep loop — and
  /// are invalidated by rebuild(), reset(), set_output_slot() and
  /// patch_output().
  void output_rows(std::span<const std::uint64_t*> rows) const {
    AXC_EXPECTS(rows.size() == output_slots_.size());
    for (std::size_t o = 0; o < output_slots_.size(); ++o) {
      rows[o] = slot_base() + output_slots_[o];
    }
  }

  // --- manual schedule construction & in-place patching ------------------
  // Slot indices at this interface are *un*-premultiplied: inputs occupy
  // slots [0, num_inputs); the caller owns the rest of [0, num_slots).

  /// Starts a fresh manual schedule over `num_slots` total slots.  Keeps
  /// storage; slot words beyond the current size are zero-initialized.
  void reset(std::size_t num_inputs, std::size_t num_outputs,
             std::size_t num_slots) {
    AXC_EXPECTS(num_slots >= num_inputs);
    num_inputs_ = num_inputs;
    output_slots_.assign(num_outputs, 0);
    steps_.clear();
    slots_.resize(num_slots * W + kSlotPad);
    indexed_ = false;
  }

  /// Appends a step writing `out_slot`; reads follow gate_fn dependence.
  void push_step(gate_fn fn, std::uint32_t in0_slot, std::uint32_t in1_slot,
                 std::uint32_t out_slot) {
    steps_.push_back(step{fn, static_cast<std::uint32_t>(in0_slot * W),
                          static_cast<std::uint32_t>(in1_slot * W),
                          static_cast<std::uint32_t>(out_slot * W)});
  }

  /// Drops all steps but keeps the slot space and output bindings — the
  /// cone-membership-changed refill path.
  void clear_steps() { steps_.clear(); }

  void set_output_slot(std::size_t o, std::uint32_t slot) {
    output_slots_[o] = static_cast<std::uint32_t>(slot * W);
  }

  /// A step's current wiring, in un-premultiplied slot indices.
  struct step_ref {
    gate_fn fn;
    std::uint32_t in0, in1, out;
  };
  [[nodiscard]] step_ref step_at(std::size_t i) const {
    const step& s = steps_[i];
    return step_ref{s.fn, static_cast<std::uint32_t>(s.in0 / W),
                    static_cast<std::uint32_t>(s.in1 / W),
                    static_cast<std::uint32_t>(s.out / W)};
  }
  /// Rewires step `i` in place (output slot is identity-stable by design).
  void patch_step(std::size_t i, gate_fn fn, std::uint32_t in0_slot,
                  std::uint32_t in1_slot) {
    step& s = steps_[i];
    s.fn = fn;
    s.in0 = static_cast<std::uint32_t>(in0_slot * W);
    s.in1 = static_cast<std::uint32_t>(in1_slot * W);
  }
  [[nodiscard]] std::uint32_t output_slot(std::size_t o) const {
    return static_cast<std::uint32_t>(output_slots_[o] / W);
  }
  void patch_output(std::size_t o, std::uint32_t slot) {
    output_slots_[o] = static_cast<std::uint32_t>(slot * W);
  }

  // --- indexed (table) schedules -----------------------------------------
  // The genotype-native incremental path (cgp::cone_program): one step slot
  // per caller-side node, of which only a packed active-index list executes
  // (ascending node order — the topological order of the CGP address
  // space).  A point mutation then updates single table entries (O(1)) and
  // a cone-membership change repacks the index list, instead of re-emitting
  // a dense step list per mutant.  The topological read contract of manual
  // schedules applies to the *active* steps only; dormant table entries may
  // hold anything.

  /// Switches to an indexed schedule over `table_size` node steps.  Keeps
  /// storage; the active list starts empty.
  void reset_table(std::size_t num_inputs, std::size_t num_outputs,
                   std::size_t num_slots, std::size_t table_size) {
    reset(num_inputs, num_outputs, num_slots);
    table_.resize(table_size);
    active_idx_.clear();
    indexed_ = true;
  }

  /// Writes node `t`'s step (un-premultiplied slot indices, like push_step).
  void set_table_step(std::size_t t, gate_fn fn, std::uint32_t in0_slot,
                      std::uint32_t in1_slot, std::uint32_t out_slot) {
    table_[t] = step{fn, static_cast<std::uint32_t>(in0_slot * W),
                     static_cast<std::uint32_t>(in1_slot * W),
                     static_cast<std::uint32_t>(out_slot * W)};
  }

  [[nodiscard]] gate_fn table_fn(std::size_t t) const { return table_[t].fn; }

  /// Rebuilds the active index list from per-node flags (`count` ==
  /// table size): node t executes iff flags[t] != 0.
  void set_active_from_flags(const std::uint8_t* flags, std::size_t count);

  [[nodiscard]] std::size_t active_count() const { return active_idx_.size(); }
  [[nodiscard]] std::uint32_t active_index(std::size_t i) const {
    return active_idx_[i];
  }

  /// Selects the step-executor backend for the wide-lane fast path (W == 8;
  /// other lane counts always run the generic executor).  `automatic` is
  /// the default: strongest compiled-in backend the CPU supports, AXC_SIMD
  /// environment override honoured.  Bit-identical at every level — the
  /// evaluator forwards its forced scan level here so parity tests exercise
  /// the whole sweep (simulate + scan) on one backend.
  void set_simd_level(simd::level l);

 private:
  using step = sim_step;

  /// slots_ is overallocated by this many words so the executing base can
  /// be rounded up to a 64-byte boundary: std::vector only guarantees
  /// 16-byte alignment, and unaligned 64-byte signal rows straddle cache
  /// lines on every access (a measured double-digit-percent executor tax).
  static constexpr std::size_t kSlotPad = 7;

  /// The 64-byte-aligned base of the slot buffer; all premultiplied slot
  /// offsets (output_slots_, step operands) are relative to this.
  [[nodiscard]] const std::uint64_t* slot_base() const {
    const auto p = reinterpret_cast<std::uintptr_t>(slots_.data());
    return slots_.data() + ((~p + 1) & 63) / 8;
  }
  [[nodiscard]] std::uint64_t* slot_base() {
    const auto p = reinterpret_cast<std::uintptr_t>(slots_.data());
    return slots_.data() + ((~p + 1) & 63) / 8;
  }

  std::vector<step> steps_;
  std::vector<std::uint32_t> output_slots_;  ///< premultiplied by W
  std::size_t num_inputs_{0};
  std::vector<std::uint64_t> slots_;  ///< num_slots * W + kSlotPad words
  std::vector<std::uint32_t> remap_;  ///< rebuild() scratch, reused
  // Indexed-schedule state (reset_table and friends).
  std::vector<step> table_;                ///< one step per caller node
  std::vector<std::uint32_t> active_idx_;  ///< executing nodes, ascending
  bool indexed_{false};
  /// Dispatched kernels (W == 8 only; resolved on first use).
  sim_steps_fn steps_fn_{nullptr};
  sim_steps_indexed_fn steps_idx_fn_{nullptr};
  sim_pack_fn pack_fn_{nullptr};
};

extern template class sim_program<1>;
extern template class sim_program<2>;
extern template class sim_program<4>;
extern template class sim_program<8>;

}  // namespace axc::circuit
