#include "cgp/cone_program.h"

#include <algorithm>

#include "circuit/gate.h"
#include "support/assert.h"

namespace axc::cgp {

namespace {

bool contains(const std::vector<std::uint32_t>& list, std::uint32_t v) {
  return std::find(list.begin(), list.end(), v) != list.end();
}

}  // namespace

void cone_program::write_step(const genotype& g, std::size_t k) {
  const parameters& p = g.params();
  const genotype::node_genes& n = g.nodes()[k];
  // Operand genes are slot indices verbatim: the slot space is the CGP
  // address space.  Ignored operands may land on unwritten slots, which
  // the executors never read.
  program_.set_table_step(
      k, p.function_set[n.fn], n.in0, n.in1,
      static_cast<std::uint32_t>(p.num_inputs + k));
}

void cone_program::bind(const genotype& parent) {
  const parameters& p = parent.params();
  const std::uint32_t ni = static_cast<std::uint32_t>(p.num_inputs);
  program_.reset_table(ni, p.num_outputs, ni + p.node_count(),
                       p.node_count());
  for (std::size_t k = 0; k < p.node_count(); ++k) write_step(parent, k);
  for (std::size_t o = 0; o < parent.output_genes().size(); ++o) {
    program_.set_output_slot(o, parent.output_genes()[o]);
  }
  parent.mark_cone(active_);
  program_.set_active_from_flags(active_.data(), active_.size());

  // Reference counts: read-edges from active nodes + output seeds.  The
  // cone rule makes refcnt > 0 equivalent to membership, which is what
  // lets apply() screen membership changes in O(dirty).
  refcnt_.assign(p.node_count(), 0);
  for (std::size_t k = 0; k < p.node_count(); ++k) {
    if (!active_[k]) continue;
    const genotype::node_genes& n = parent.nodes()[k];
    const circuit::gate_fn fn = p.function_set[n.fn];
    if (circuit::depends_on_a(fn) && n.in0 >= ni) ++refcnt_[n.in0 - ni];
    if (circuit::depends_on_b(fn) && n.in1 >= ni) ++refcnt_[n.in1 - ni];
  }
  for (const std::uint32_t out : parent.output_genes()) {
    if (out >= ni) ++refcnt_[out - ni];
  }

  ref_journal_.clear();
  child_dirty_.clear();
  applied_child_ = nullptr;
  indices_stale_ = false;
  membership_deferred_ = false;
  fns_valid_ = false;
}

cone_program::delta cone_program::apply(const genotype& parent,
                                        const genotype& child,
                                        std::span<const std::uint32_t> dirty) {
  AXC_EXPECTS(child_dirty_.empty());  // previous child must be released
  const parameters& p = parent.params();
  const std::size_t node_gene_count = p.node_count() * 3;
  const std::uint32_t ni = static_cast<std::uint32_t>(p.num_inputs);
  const std::vector<circuit::gate_fn>& fs = p.function_set;

  // Pass 1 — classify the mutation against the bound parent and fold its
  // dependence-edge deltas into the reference counts.  A gene is
  // *effective* when its value actually changed and the phenotype can see
  // it (active node or output gene); only effective changes touch edges,
  // so an identical verdict leaves the counts untouched.
  bool effective = false;
  bool activation = false;    // some node gained its first reference
  bool deactivation = false;  // some node lost its last reference
  ref_journal_.clear();
  seen_nodes_.clear();
  seen_outputs_.clear();

  const auto bump = [&](std::uint32_t addr, std::int32_t d) {
    if (addr < ni) return;  // edges into primary inputs are uncounted
    const std::uint32_t t = addr - ni;
    ref_journal_.emplace_back(t, d);
    if (d > 0) {
      if (refcnt_[t]++ == 0) activation = true;
    } else {
      if (--refcnt_[t] == 0) deactivation = true;
    }
  };

  for (const std::uint32_t idx : dirty) {
    if (idx >= node_gene_count) {
      const std::uint32_t o = static_cast<std::uint32_t>(idx - node_gene_count);
      if (child.output_genes()[o] == parent.output_genes()[o]) continue;
      if (contains(seen_outputs_, o)) continue;
      seen_outputs_.push_back(o);
      effective = true;
      bump(parent.output_genes()[o], -1);  // output seeds moved
      bump(child.output_genes()[o], +1);
      continue;
    }
    const std::uint32_t k = idx / 3;
    const genotype::node_genes& pn = parent.nodes()[k];
    const genotype::node_genes& cn = child.nodes()[k];
    if (pn == cn || !active_[k]) continue;
    if (contains(seen_nodes_, k)) continue;
    const circuit::gate_fn cf = fs[cn.fn];
    const bool in0_read = circuit::depends_on_a(cf);
    const bool in1_read = circuit::depends_on_b(cf);
    const bool in0_rewired = in0_read && pn.in0 != cn.in0;
    const bool in1_rewired = in1_read && pn.in1 != cn.in1;
    if (pn.fn == cn.fn && !in0_rewired && !in1_rewired) {
      continue;  // only ignored operands rewired: phenotype unchanged
    }
    seen_nodes_.push_back(k);
    effective = true;
    const circuit::gate_fn pf = fs[pn.fn];
    const bool p0_read = circuit::depends_on_a(pf);
    const bool p1_read = circuit::depends_on_b(pf);
    if (p0_read != in0_read || in0_rewired) {
      if (p0_read) bump(pn.in0, -1);
      if (in0_read) bump(cn.in0, +1);
    }
    if (p1_read != in1_read || in1_rewired) {
      if (p1_read) bump(pn.in1, -1);
      if (in1_read) bump(cn.in1, +1);
    }
  }
  if (!effective) return delta::identical;

  // Pass 2 — retarget the table: O(dirty) entry writes (idempotent on
  // duplicate indices), restored from the parent's genes at
  // release_child().  Inactive dirty nodes are written too: a sibling
  // change may pull them into the child's cone.
  child_dirty_.assign(dirty.begin(), dirty.end());
  for (const std::uint32_t idx : dirty) {
    if (idx >= node_gene_count) {
      const std::size_t o = idx - node_gene_count;
      program_.set_output_slot(o, child.output_genes()[o]);
    } else {
      write_step(child, idx / 3);
    }
  }
  applied_child_ = &child;
  fns_valid_ = false;
  membership_deferred_ = false;

  // Pass 3 — membership.  No count crossed zero: the child's cone equals
  // the parent's (each member keeps an active reader chain, each
  // non-member stays unreferenced) and the index list is reused.  A node
  // activation needs the true cone (mark + repack).  Pure deactivation
  // shrinks the cone, and executing the parent's superset is exact — the
  // dropped gates feed no output — so the walk is skipped there too.
  if (activation) {
    child.mark_cone(scratch_flags_);
    if (scratch_flags_ != active_) {
      program_.set_active_from_flags(scratch_flags_.data(),
                                     scratch_flags_.size());
      indices_stale_ = true;
      return delta::recompiled;
    }
  }
  if (indices_stale_) {
    // A previously recompiled sibling left its membership in the list.
    program_.set_active_from_flags(active_.data(), active_.size());
    indices_stale_ = false;
  }
  if (deactivation && !activation) {
    membership_deferred_ = true;
    return delta::recompiled;
  }
  return delta::patched;
}

void cone_program::release_child(const genotype& parent) {
  const parameters& p = parent.params();
  const std::size_t node_gene_count = p.node_count() * 3;
  for (const std::uint32_t idx : child_dirty_) {
    if (idx >= node_gene_count) {
      const std::size_t o = idx - node_gene_count;
      program_.set_output_slot(o, parent.output_genes()[o]);
    } else {
      write_step(parent, idx / 3);
    }
  }
  child_dirty_.clear();
  for (const auto& [t, d] : ref_journal_) {
    refcnt_[t] -= static_cast<std::uint32_t>(d);
  }
  ref_journal_.clear();
  applied_child_ = nullptr;
  membership_deferred_ = false;
  fns_valid_ = false;
  // indices_stale_ stays as-is: the next apply() repacks lazily if needed.
}

std::span<const circuit::gate_fn> cone_program::step_fns() {
  if (!fns_valid_) {
    if (applied_child_ == nullptr && indices_stale_) {
      // Reading the bound parent after a recompiled sibling was released:
      // repair the index list before deriving the gate list from it.
      program_.set_active_from_flags(active_.data(), active_.size());
      indices_stale_ = false;
    }
    if (membership_deferred_) {
      // Superset execution: derive the child's true cone for area parity
      // with the decoded netlist (the sweep itself never needed it).
      applied_child_->mark_cone(scratch_flags_);
      const parameters& p = applied_child_->params();
      fns_.clear();
      for (std::size_t k = 0; k < scratch_flags_.size(); ++k) {
        if (scratch_flags_[k]) {
          fns_.push_back(p.function_set[applied_child_->nodes()[k].fn]);
        }
      }
    } else {
      fns_.resize(program_.active_count());
      for (std::size_t i = 0; i < fns_.size(); ++i) {
        fns_[i] = program_.table_fn(program_.active_index(i));
      }
    }
    fns_valid_ = true;
  }
  return fns_;
}

}  // namespace axc::cgp
