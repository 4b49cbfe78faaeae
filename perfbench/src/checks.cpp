#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <unordered_map>

#include "fault/audit.hpp"

namespace perfbench {
namespace {

using eqos::topology::LinkId;
using eqos::topology::NodeId;

constexpr double kEps = 1e-6;
/// Enough to diagnose a failure without flooding the output.
constexpr std::size_t kMaxProblems = 20;

void report(Problems& out, const std::string& what) {
  if (out.size() < kMaxProblems) out.push_back(what);
}

std::string conn_name(const ConnSnap& c) { return "connection " + std::to_string(c.id); }

ChannelSnap channel_of(const eqos::topology::Path& path) {
  return ChannelSnap{path.nodes, path.links, {}};
}

/// True when `ch` is a walk from `src` to `dst` over the links it names.
bool is_walk(const NetworkSnapshot& snap, const ChannelSnap& ch, NodeId src, NodeId dst) {
  if (ch.nodes.size() != ch.links.size() + 1) return false;
  if (ch.nodes.front() != src || ch.nodes.back() != dst) return false;
  for (std::size_t i = 0; i < ch.links.size(); ++i) {
    if (ch.links[i] >= snap.links.size()) return false;
    const LinkSnap& l = snap.links[ch.links[i]];
    const NodeId u = ch.nodes[i];
    const NodeId v = ch.nodes[i + 1];
    if (!((l.a == u && l.b == v) || (l.a == v && l.b == u))) return false;
  }
  return true;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

}  // namespace

NetworkSnapshot take_snapshot(const eqos::net::Network& network) {
  NetworkSnapshot snap;
  const auto& graph = network.graph();
  snap.multiplexing = network.config().backup_multiplexing;
  snap.links.reserve(graph.num_links());
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    const auto& s = network.link_state(l);
    snap.links.push_back(LinkSnap{graph.link(l).a, graph.link(l).b, s.capacity(),
                                  s.committed_min(), s.backup_reserved(),
                                  s.elastic_granted(), s.failed()});
  }
  snap.conns.reserve(network.num_active());
  for (const eqos::net::ConnectionId id : network.active_ids()) {
    const eqos::net::DrConnection& c = network.connection(id);
    ConnSnap cs;
    cs.id = id;
    cs.src = c.src;
    cs.dst = c.dst;
    cs.bmin = c.qos.bmin_kbps;
    cs.bmax = c.qos.bmax_kbps;
    cs.increment = c.qos.increment_kbps;
    cs.reserved_kbps = c.reserved_kbps();
    cs.recovering = c.recovering;
    cs.primary = channel_of(c.primary);
    for (const eqos::net::BackupChannel& ch : c.backups) {
      ChannelSnap b = channel_of(ch.path);
      for (std::size_t l = 0; l < ch.trigger_links.size(); ++l)
        if (ch.trigger_links.test(l)) b.trigger.push_back(static_cast<LinkId>(l));
      cs.backups.push_back(std::move(b));
    }
    snap.conns.push_back(std::move(cs));
  }
  return snap;
}

void check_link_reservations(const NetworkSnapshot& snap, Problems& out) {
  const std::size_t n = snap.links.size();
  std::vector<double> committed(n, 0.0);
  std::vector<double> elastic(n, 0.0);
  std::vector<double> backup_sum(n, 0.0);
  // link -> (trigger link -> sum of bmin of the backups it would activate)
  std::unordered_map<LinkId, std::unordered_map<LinkId, double>> scenarios;
  for (const ConnSnap& c : snap.conns) {
    if (!c.recovering) {
      for (const LinkId l : c.primary.links) {
        if (l >= n) {
          report(out, conn_name(c) + " names unknown link " + std::to_string(l));
          return;
        }
        committed[l] += c.bmin;
        elastic[l] += c.reserved_kbps - c.bmin;
      }
    }
    for (const ChannelSnap& ch : c.backups) {
      for (const LinkId l : ch.links) {
        if (l >= n) {
          report(out, conn_name(c) + " backup names unknown link " + std::to_string(l));
          return;
        }
        backup_sum[l] += c.bmin;
        for (const LinkId f : ch.trigger) scenarios[l][f] += c.bmin;
      }
    }
  }
  for (std::size_t l = 0; l < n; ++l) {
    const LinkSnap& s = snap.links[l];
    double reserve = backup_sum[l];
    if (snap.multiplexing) {
      reserve = 0.0;
      if (const auto it = scenarios.find(static_cast<LinkId>(l)); it != scenarios.end())
        for (const auto& [f, sum] : it->second) reserve = std::max(reserve, sum);
    }
    const std::string where = "link " + std::to_string(l);
    if (committed[l] + reserve > s.capacity + kEps)
      report(out, where + ": minimums " + std::to_string(committed[l]) +
                      " + backup reservation " + std::to_string(reserve) +
                      " exceed capacity " + std::to_string(s.capacity));
    if (committed[l] + elastic[l] > s.capacity + kEps)
      report(out, where + ": minimums " + std::to_string(committed[l]) + " + grants " +
                      std::to_string(elastic[l]) + " exceed capacity " +
                      std::to_string(s.capacity));
    if (std::abs(committed[l] - s.committed_min) > kEps)
      report(out, where + ": ledger minimums " + std::to_string(s.committed_min) +
                      " != recomputed " + std::to_string(committed[l]));
    if (std::abs(elastic[l] - s.elastic_granted) > kEps)
      report(out, where + ": ledger grants " + std::to_string(s.elastic_granted) +
                      " != recomputed " + std::to_string(elastic[l]));
    if (std::abs(reserve - s.backup_reserved) > kEps)
      report(out, where + ": ledger backup reservation " + std::to_string(s.backup_reserved) +
                      " != recomputed " + std::to_string(reserve));
  }
}

void check_grants(const NetworkSnapshot& snap, Problems& out) {
  for (const ConnSnap& c : snap.conns) {
    const double k = (c.reserved_kbps - c.bmin) / c.increment;
    if (c.reserved_kbps < c.bmin - kEps || c.reserved_kbps > c.bmax + kEps)
      report(out, conn_name(c) + " reserves " + std::to_string(c.reserved_kbps) +
                      " outside [" + std::to_string(c.bmin) + ", " + std::to_string(c.bmax) +
                      "]");
    else if (std::abs(k - std::round(k)) > 1e-9)
      report(out, conn_name(c) + " reserves " + std::to_string(c.reserved_kbps) +
                      ", not Bmin plus whole increments");
  }
}

void check_failed_links(const NetworkSnapshot& snap, Problems& out) {
  for (const ConnSnap& c : snap.conns) {
    if (c.recovering) continue;
    for (const LinkId l : c.primary.links)
      if (l < snap.links.size() && snap.links[l].failed)
        report(out, conn_name(c) + " primary crosses failed link " + std::to_string(l));
  }
}

void check_paths(const NetworkSnapshot& snap, bool require_disjoint, Problems& out) {
  for (const ConnSnap& c : snap.conns) {
    if (!c.recovering && !is_walk(snap, c.primary, c.src, c.dst))
      report(out, conn_name(c) + " primary is not a walk from its source to its destination");
    for (const ChannelSnap& b : c.backups) {
      if (!is_walk(snap, b, c.src, c.dst))
        report(out, conn_name(c) + " backup is not a walk from its source to its destination");
      if (!require_disjoint) continue;
      for (const LinkId l : b.links)
        if (std::find(c.primary.links.begin(), c.primary.links.end(), l) !=
            c.primary.links.end()) {
          report(out, conn_name(c) + " backup shares link " + std::to_string(l) +
                          " with its primary");
          break;
        }
    }
  }
}

std::vector<GridCoord> torus_coordinates(const eqos::topology::Graph& graph, std::size_t rows,
                                         std::size_t cols) {
  std::vector<GridCoord> coords(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto p = graph.position(v);
    coords[v].row = static_cast<std::size_t>(std::llround(p.y * static_cast<double>(rows))) % rows;
    coords[v].col = static_cast<std::size_t>(std::llround(p.x * static_cast<double>(cols))) % cols;
  }
  return coords;
}

std::size_t torus_distance(GridCoord a, GridCoord b, std::size_t rows, std::size_t cols) {
  const std::size_t dr = a.row > b.row ? a.row - b.row : b.row - a.row;
  const std::size_t dc = a.col > b.col ? a.col - b.col : b.col - a.col;
  return std::min(dr, rows - dr) + std::min(dc, cols - dc);
}

void check_torus_hops(const NetworkSnapshot& snap, const std::vector<GridCoord>& coords,
                      std::size_t rows, std::size_t cols, Problems& out) {
  for (const ConnSnap& c : snap.conns) {
    if (c.recovering) continue;
    const std::size_t want = torus_distance(coords.at(c.src), coords.at(c.dst), rows, cols);
    if (c.primary.links.size() != want)
      report(out, conn_name(c) + " primary has " + std::to_string(c.primary.links.size()) +
                      " hops, torus distance is " + std::to_string(want));
  }
}

void check_population_balance(std::size_t accepted, std::size_t terminated,
                              std::size_t dropped, std::size_t active, Problems& out) {
  if (accepted != terminated + dropped + active)
    report(out, "accepted " + std::to_string(accepted) + " - terminated " +
                    std::to_string(terminated) + " - dropped " + std::to_string(dropped) +
                    " != active " + std::to_string(active));
}

void check_recovery_balance(std::uint64_t severed, std::uint64_t recovered,
                            std::uint64_t dropped, std::uint64_t in_flight,
                            std::uint64_t terminated, Problems& out) {
  if (severed != recovered + dropped + in_flight + terminated)
    report(out, "recovery plane: severed " + std::to_string(severed) + " != recovered " +
                    std::to_string(recovered) + " + dropped " + std::to_string(dropped) +
                    " + in flight " + std::to_string(in_flight) +
                    " + terminated while recovering " + std::to_string(terminated));
}

std::uint64_t check_recovery_step(const RecoveryStep& step, Problems& out) {
  const auto fail = [&] {
    report(out, "recovery plane: a step with " + std::to_string(step.terminations) +
                    " terminations lost " + std::to_string(step.gone) +
                    " recovering connections and returned " +
                    std::to_string(step.seen_recovered) + " to service; the plane counted " +
                    std::to_string(step.plane_dropped) + " drops and " +
                    std::to_string(step.plane_recovered) + " recoveries");
    return std::uint64_t{0};
  };
  if (step.plane_recovered < step.seen_recovered || step.gone < step.plane_dropped) return fail();
  const std::uint64_t unseen = step.plane_recovered - step.seen_recovered;
  const std::uint64_t departed = step.gone - step.plane_dropped;
  if (step.terminations == 0) return departed == 0 ? 0 : fail();
  if (departed < unseen || departed > step.terminations) return fail();
  return departed - unseen;
}

void check_model_agreement(const LoadPoint& p, double rel_tol, Problems& out) {
  const double err = std::abs(p.analytic_kbps - p.sim_kbps) / p.sim_kbps;
  if (!(err <= rel_tol))
    report(out, "load " + std::to_string(p.load) + ": analytic E[B] " +
                    std::to_string(p.analytic_kbps) + " vs simulated " +
                    std::to_string(p.sim_kbps) + " differ by " + std::to_string(100.0 * err) +
                    "%");
}

void check_monotone_decline(const std::vector<LoadPoint>& points, double slack_kbps,
                            Problems& out) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    const LoadPoint& a = points[i - 1];
    const LoadPoint& b = points[i];
    if (b.sim_kbps > a.sim_kbps + slack_kbps)
      report(out, "simulated E[B] rises from " + std::to_string(a.sim_kbps) + " at load " +
                      std::to_string(a.load) + " to " + std::to_string(b.sim_kbps) +
                      " at load " + std::to_string(b.load));
    if (b.analytic_kbps > a.analytic_kbps + slack_kbps)
      report(out, "analytic E[B] rises from " + std::to_string(a.analytic_kbps) +
                      " at load " + std::to_string(a.load) + " to " +
                      std::to_string(b.analytic_kbps) + " at load " + std::to_string(b.load));
  }
}

void run_program_audits(const eqos::net::Network& network, Problems& out) {
  try {
    network.audit();
  } catch (const std::exception& e) {
    report(out, std::string("Network::audit: ") + e.what());
  }
  try {
    eqos::fault::audit_network(network);
  } catch (const std::exception& e) {
    report(out, std::string("fault::audit_network: ") + e.what());
  }
}

std::uint64_t network_digest(const eqos::net::Network& network) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(network.num_active()));
  for (const eqos::net::ConnectionId id : network.active_ids()) {
    const eqos::net::DrConnection& c = network.connection(id);
    f.add(id);
    f.add(static_cast<std::uint64_t>(c.src));
    f.add(static_cast<std::uint64_t>(c.dst));
    f.add(static_cast<std::uint64_t>(c.extra_quanta));
    f.add(static_cast<std::uint64_t>(c.recovering));
    for (const LinkId l : c.primary.links) f.add(static_cast<std::uint64_t>(l));
    for (const eqos::net::BackupChannel& ch : c.backups) {
      f.add(~std::uint64_t{0});
      for (const LinkId l : ch.path.links) f.add(static_cast<std::uint64_t>(l));
    }
  }
  const eqos::net::NetworkStats& s = network.stats();
  for (const std::size_t v :
       {s.requests, s.accepted, s.rejected_no_primary, s.rejected_no_backup, s.terminated,
        s.failures_injected, s.repairs, s.backups_activated, s.connections_dropped,
        s.backups_reestablished, s.backups_evicted, s.unprotected_victims,
        s.quanta_adjustments})
    f.add(static_cast<std::uint64_t>(v));
  for (const double t : s.recovery_times) f.add(t);
  for (const double t : s.blackout_times) f.add(t);
  return f.h;
}

}  // namespace perfbench
