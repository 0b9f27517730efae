#include "tech/analysis.h"

#include <algorithm>
#include <vector>

#include "support/assert.h"

namespace axc::tech {

using circuit::gate_fn;
using circuit::gate_node;
using circuit::netlist;

double estimate_area(const netlist& nl, const cell_library& lib) {
  const std::vector<bool> active = nl.active_mask();
  double area = 0.0;
  for (std::size_t k = 0; k < nl.num_gates(); ++k) {
    if (active[k]) area += lib.cell(nl.gate(k).fn).area_um2;
  }
  return area;
}

double critical_path_ps(const netlist& nl, const cell_library& lib) {
  const std::vector<bool> active = nl.active_mask();
  const std::size_t ni = nl.num_inputs();
  std::vector<double> arrival(nl.num_signals(), 0.0);

  for (std::size_t k = 0; k < nl.num_gates(); ++k) {
    if (!active[k]) continue;
    const gate_node& g = nl.gate(k);
    double inputs_ready = 0.0;
    if (circuit::depends_on_a(g.fn)) {
      inputs_ready = std::max(inputs_ready, arrival[g.in0]);
    }
    if (circuit::depends_on_b(g.fn)) {
      inputs_ready = std::max(inputs_ready, arrival[g.in1]);
    }
    arrival[ni + k] = inputs_ready + lib.cell(g.fn).delay_ps;
  }

  double critical = 0.0;
  for (const std::uint32_t out : nl.outputs()) {
    critical = std::max(critical, arrival[out]);
  }
  return critical;
}

power_report estimate_power(const netlist& nl, const cell_library& lib,
                            const circuit::activity_profile& activity,
                            double clock_ghz) {
  AXC_EXPECTS(activity.gate_toggle_rate.size() == nl.num_gates());
  const std::vector<bool> active = nl.active_mask();

  power_report report;
  for (std::size_t k = 0; k < nl.num_gates(); ++k) {
    if (!active[k]) continue;
    const cell_params& cell = lib.cell(nl.gate(k).fn);
    // fJ per toggle x toggles per cycle x GHz = uW.
    report.dynamic_uw +=
        activity.gate_toggle_rate[k] * cell.toggle_energy_fj * clock_ghz;
    report.leakage_uw += cell.leakage_nw * 1e-3;
  }
  return report;
}

circuit_report analyze(const netlist& nl, const cell_library& lib,
                       std::span<const std::uint64_t> workload,
                       double clock_ghz) {
  circuit_report report;
  report.area_um2 = estimate_area(nl, lib);
  report.delay_ps = critical_path_ps(nl, lib);
  const circuit::activity_profile activity =
      circuit::profile_activity(nl, workload);
  report.power = estimate_power(nl, lib, activity, clock_ghz);

  const std::vector<bool> active = nl.active_mask();
  for (std::size_t k = 0; k < nl.num_gates(); ++k) {
    const gate_fn fn = nl.gate(k).fn;
    if (active[k] && fn != gate_fn::buf_a && fn != gate_fn::buf_b &&
        fn != gate_fn::const0 && fn != gate_fn::const1) {
      ++report.active_gates;
    }
  }
  return report;
}

}  // namespace axc::tech
