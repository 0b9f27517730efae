// Area / timing / power analysis of gate-level netlists.
//
// - Area: sum of active-gate cell areas (the CGP fitness surrogate; the
//   paper picks area because it is fast to estimate and highly correlated
//   with power for this gate set).
// - Delay: static longest path over active gates.
// - Dynamic power: per-gate toggle rate (from circuit::activity) times the
//   cell's switching energy at a nominal clock.
// - PDP: total power x critical-path delay (the paper's headline metric for
//   MAC units).
#pragma once

#include <cstdint>
#include <span>

#include "circuit/activity.h"
#include "circuit/netlist.h"
#include "tech/cell_library.h"

namespace axc::tech {

struct power_report {
  double dynamic_uw{0.0};
  double leakage_uw{0.0};
  [[nodiscard]] double total_uw() const { return dynamic_uw + leakage_uw; }
};

struct circuit_report {
  double area_um2{0.0};
  double delay_ps{0.0};
  power_report power;
  std::size_t active_gates{0};
  /// Power-delay product in fJ (total power x critical-path delay).
  [[nodiscard]] double pdp_fj() const {
    return power.total_uw() * delay_ps * 1e-3;
  }
};

/// Fast area estimate (called in the CGP inner loop): sum of active-gate
/// cell areas in um^2, in gate order.  The genotype-native search path
/// reproduces it FP-identically without a netlist
/// (cgp::cone_program::cone_sum over cell areas, same addends and order).
double estimate_area(const circuit::netlist& nl, const cell_library& lib);

/// Static timing: critical-path delay in ps over active gates.
double critical_path_ps(const circuit::netlist& nl, const cell_library& lib);

/// Dynamic + leakage power given a toggle-activity profile, at `clock_ghz`.
power_report estimate_power(const circuit::netlist& nl,
                            const cell_library& lib,
                            const circuit::activity_profile& activity,
                            double clock_ghz = 1.0);

/// Full report.  `workload[t]` packs the input assignment at time t
/// (simulator.h convention); it drives the activity profile.
circuit_report analyze(const circuit::netlist& nl, const cell_library& lib,
                       std::span<const std::uint64_t> workload,
                       double clock_ghz = 1.0);

}  // namespace axc::tech
