// Output checks of the benchmark.
//
// Every check compares the program's outputs with a property of the method
// or with a second computation made here, from plain data, apart from the
// program: never with a stored copy of an earlier run's output.  The checks
// take a NetworkSnapshot (copied out of a live net::Network through its
// public observers) rather than the Network itself, so the benchmark's own
// tests can hand them deliberately broken inputs and show that they fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace perfbench {

/// Human-readable check failures; empty means every check passed.
using Problems = std::vector<std::string>;

struct ChannelSnap {
  std::vector<eqos::topology::NodeId> nodes;
  std::vector<eqos::topology::LinkId> links;
  /// Primary links whose failure activates this channel (the key of its
  /// multiplexed reservation).
  std::vector<eqos::topology::LinkId> trigger;
};

struct ConnSnap {
  eqos::net::ConnectionId id = 0;
  eqos::topology::NodeId src = 0;
  eqos::topology::NodeId dst = 0;
  double bmin = 0.0;
  double bmax = 0.0;
  double increment = 0.0;
  double reserved_kbps = 0.0;
  /// A victim the recovery plane is still working on: it holds no primary
  /// resources, only its surviving backup reservations.
  bool recovering = false;
  ChannelSnap primary;  ///< trigger unused
  std::vector<ChannelSnap> backups;
};

struct LinkSnap {
  eqos::topology::NodeId a = 0;
  eqos::topology::NodeId b = 0;
  double capacity = 0.0;
  double committed_min = 0.0;
  double backup_reserved = 0.0;
  double elastic_granted = 0.0;
  bool failed = false;
};

struct NetworkSnapshot {
  bool multiplexing = true;
  std::vector<LinkSnap> links;
  std::vector<ConnSnap> conns;
};

[[nodiscard]] NetworkSnapshot take_snapshot(const eqos::net::Network& network);

/// Recomputes every link's committed minimums, elastic grants and
/// multiplexed backup reservation (worst single-link failure) from the
/// connections' paths, and checks that they fit the link's capacity and
/// agree with the link's own ledger.
void check_link_reservations(const NetworkSnapshot& snap, Problems& out);

/// Every grant is Bmin + kΔ for a whole k and lies within [Bmin, Bmax].
void check_grants(const NetworkSnapshot& snap, Problems& out);

/// No active (non-recovering) primary crosses a failed link.
void check_failed_links(const NetworkSnapshot& snap, Problems& out);

/// Every primary and backup is a walk from the connection's source to its
/// destination over the links it names.  With `require_disjoint`, every
/// backup also shares no link with its primary.
void check_paths(const NetworkSnapshot& snap, bool require_disjoint, Problems& out);

/// Grid coordinates of a node of a rows x cols torus.
struct GridCoord {
  std::size_t row = 0;
  std::size_t col = 0;
};

/// Recovers each node's grid coordinates from its unit-square position
/// (x = col / cols, y = row / rows).
[[nodiscard]] std::vector<GridCoord> torus_coordinates(const eqos::topology::Graph& graph,
                                                       std::size_t rows, std::size_t cols);

/// Torus (wrap-around Manhattan) distance between two grid points.
[[nodiscard]] std::size_t torus_distance(GridCoord a, GridCoord b, std::size_t rows,
                                         std::size_t cols);

/// Every active primary is as short as the torus distance between its
/// endpoints (far from saturation, fewest-hop routing finds a shortest path).
void check_torus_hops(const NetworkSnapshot& snap, const std::vector<GridCoord>& coords,
                      std::size_t rows, std::size_t cols, Problems& out);

/// accepted - terminated - dropped == active connections.
void check_population_balance(std::size_t accepted, std::size_t terminated,
                              std::size_t dropped, std::size_t active, Problems& out);

/// Every victim handed to the recovery plane is accounted for: severed ==
/// recovered + dropped by the plane + still in flight + terminated by the
/// workload while recovering (the plane cancels such a victim without
/// counting it, so that term comes from the network's side).
void check_recovery_balance(std::uint64_t severed, std::uint64_t recovered,
                            std::uint64_t dropped, std::uint64_t in_flight,
                            std::uint64_t terminated, Problems& out);

/// One simulation step (one Simulator::run_events(1)) seen from the network
/// and from the recovery plane.  Of the connections recovering before the
/// step, `gone` left the network and `seen_recovered` are back in service.
/// The plane counted `plane_dropped` drops and `plane_recovered` recoveries;
/// the step ran `terminations` termination events.
struct RecoveryStep {
  std::uint64_t gone = 0;
  std::uint64_t seen_recovered = 0;
  std::uint64_t plane_dropped = 0;
  std::uint64_t plane_recovered = 0;
  std::uint64_t terminations = 0;
};

/// Every departure is a plane drop or a termination, and every recovery the
/// network shows was counted by the plane.  A counted recovery the network
/// does not show is a victim that recovered and, later in the same step, was
/// terminated or severed again.  Returns the victims the step terminated
/// while they were still recovering.
std::uint64_t check_recovery_step(const RecoveryStep& step, Problems& out);

/// One point of the Figure 2 axis.
struct LoadPoint {
  std::size_t load = 0;
  double sim_kbps = 0.0;       ///< time-averaged simulated E[B]
  double analytic_kbps = 0.0;  ///< E[B] of the solved Markov chain
};

/// Analytic and simulated E[B] agree within `rel_tol` of the simulated value.
void check_model_agreement(const LoadPoint& p, double rel_tol, Problems& out);

/// Neither simulated nor analytic E[B] rises by more than `slack_kbps` from
/// one load to the next (points must be in ascending load order).
void check_monotone_decline(const std::vector<LoadPoint>& points, double slack_kbps,
                            Problems& out);

/// Runs the program's own audits, net::Network::audit() and
/// fault::audit_network(), recording what they throw.
void run_program_audits(const eqos::net::Network& network, Problems& out);

/// 64-bit digest of a network's observable state: every active connection
/// (ids, endpoints, grants, every path) and the outcome counters.  Two runs
/// of the same inputs must produce the same digest.
[[nodiscard]] std::uint64_t network_digest(const eqos::net::Network& network);

}  // namespace perfbench
