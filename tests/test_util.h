// Shared test helpers: naive reference implementations the optimized
// library code is checked against, plus random-structure generators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.h"
#include "circuit/netlist.h"
#include "support/rng.h"

namespace axc::test {

/// `text` with its first line (below the first) whose first word is `key`
/// replaced by `line`; an empty `line` drops it.  Unchanged when no line
/// matches.  Edits one field of a line-based text format (sweep specs,
/// serve requests) into a hostile variant.
inline std::string replace_line(const std::string& text,
                                const std::string& key,
                                const std::string& line) {
  const std::size_t at = text.find("\n" + key + " ");
  if (at == std::string::npos) return text;
  const std::size_t end = text.find('\n', at + 1);
  if (end == std::string::npos) return text;
  return text.substr(0, at + 1) + line +
         text.substr(line.empty() ? end + 1 : end);
}

/// Reference single-assignment evaluator (no bit-parallel tricks): input
/// assignment packed as bit i = input i; returns packed outputs.
inline std::uint64_t naive_eval(const circuit::netlist& nl,
                                std::uint64_t assignment) {
  std::vector<std::uint64_t> value(nl.num_signals(), 0);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    value[i] = (assignment >> i) & 1 ? ~std::uint64_t{0} : 0;
  }
  for (std::size_t k = 0; k < nl.num_gates(); ++k) {
    const circuit::gate_node& g = nl.gate(k);
    value[nl.num_inputs() + k] =
        circuit::eval_gate(g.fn, value[g.in0], value[g.in1]);
  }
  std::uint64_t out = 0;
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    out |= (value[nl.output(o)] & 1) << o;
  }
  return out;
}

/// Structurally valid random netlist (for property tests).
inline circuit::netlist random_netlist(std::size_t inputs, std::size_t outputs,
                                       std::size_t gates, rng& gen) {
  circuit::netlist nl(inputs, outputs);
  const auto fns = circuit::full_function_set();
  for (std::size_t k = 0; k < gates; ++k) {
    const auto limit = static_cast<std::uint32_t>(inputs + k);
    nl.add_gate(fns[gen.below(fns.size())],
                static_cast<std::uint32_t>(gen.below(limit)),
                static_cast<std::uint32_t>(gen.below(limit)));
  }
  for (std::size_t o = 0; o < outputs; ++o) {
    nl.set_output(o, static_cast<std::uint32_t>(gen.below(inputs + gates)));
  }
  return nl;
}

/// Signed/unsigned interpretation helpers mirroring metrics::mult_spec.
inline std::int64_t as_value(std::uint64_t pattern, unsigned bits,
                             bool is_signed) {
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  pattern &= mask;
  if (is_signed && bits < 64 && (pattern >> (bits - 1)) != 0) {
    return static_cast<std::int64_t>(pattern) -
           static_cast<std::int64_t>(std::uint64_t{1} << bits);
  }
  return static_cast<std::int64_t>(pattern);
}

}  // namespace axc::test
