// The benchmark's own tests: every output check fails on a deliberately
// broken input, and the traced and untraced runs (and the sweep at one
// thread and at the pool size) give identical simulation outputs.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <thread>

#include "checks.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "topology/regular.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using eqos::topology::LinkId;
using eqos::topology::NodeId;

/// Path graph 0 - 1 - 2 with 1000 Kb/s links 0 (0-1) and 1 (1-2), carrying
/// one connection 0 -> 2 at bmin 100 with no backup.
NetworkSnapshot line_snapshot() {
  NetworkSnapshot snap;
  snap.links = {LinkSnap{0, 1, 1000.0, 100.0, 0.0, 0.0, false},
                LinkSnap{1, 2, 1000.0, 100.0, 0.0, 0.0, false}};
  ConnSnap c;
  c.id = 1;
  c.src = 0;
  c.dst = 2;
  c.bmin = 100.0;
  c.bmax = 500.0;
  c.increment = 50.0;
  c.reserved_kbps = 100.0;
  c.primary = ChannelSnap{{0, 1, 2}, {0, 1}, {}};
  snap.conns.push_back(c);
  return snap;
}

Problems all_snapshot_checks(const NetworkSnapshot& snap, bool disjoint) {
  Problems p;
  check_link_reservations(snap, p);
  check_grants(snap, p);
  check_failed_links(snap, p);
  check_paths(snap, disjoint, p);
  return p;
}

TEST(Checks, AcceptConsistentSnapshot) {
  EXPECT_TRUE(all_snapshot_checks(line_snapshot(), true).empty());
}

TEST(Checks, ReservationOverCapacityFails) {
  NetworkSnapshot snap = line_snapshot();
  ConnSnap big = snap.conns[0];
  big.id = 2;
  big.bmin = 950.0;
  big.bmax = 950.0;
  big.reserved_kbps = 950.0;
  snap.conns.push_back(big);
  // The ledger agrees with the paths; only the capacity is exceeded.
  for (LinkSnap& l : snap.links) l.committed_min = 1050.0;
  Problems p;
  check_link_reservations(snap, p);
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("exceed capacity"), std::string::npos);
}

TEST(Checks, BackupReservationOverCapacityFails) {
  NetworkSnapshot snap = line_snapshot();
  snap.links.push_back(LinkSnap{0, 2, 1000.0, 0.0, 1000.0, 0.0, false});
  // Two connections on the primary 0-1-2 park backups on link 2, which a
  // failure of link 0 or 1 would activate together (600), while a third
  // connection holds 500 on link 2 itself: 100 over.
  snap.conns[0].backups.push_back(ChannelSnap{{0, 2}, {2}, {0, 1}});
  ConnSnap other = snap.conns[0];
  other.id = 2;
  other.bmin = 500.0;
  other.reserved_kbps = 500.0;
  other.src = 0;
  other.dst = 2;
  other.primary = ChannelSnap{{0, 1, 2}, {0, 1}, {}};
  other.backups = {ChannelSnap{{0, 2}, {2}, {0, 1}}};
  snap.conns.push_back(other);
  ConnSnap direct = snap.conns[0];
  direct.id = 3;
  direct.bmin = 500.0;
  direct.reserved_kbps = 500.0;
  direct.primary = ChannelSnap{{0, 2}, {2}, {}};
  direct.backups.clear();
  snap.conns.push_back(direct);
  snap.links[0].committed_min = snap.links[1].committed_min = 600.0;
  snap.links[2].committed_min = 500.0;
  snap.links[2].backup_reserved = 600.0;
  Problems p;
  check_link_reservations(snap, p);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("backup reservation 600"), std::string::npos);
}

TEST(Checks, LedgerDisagreeingWithPathsFails) {
  NetworkSnapshot snap = line_snapshot();
  snap.links[1].elastic_granted = 50.0;
  Problems p;
  check_link_reservations(snap, p);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NE(p[0].find("ledger grants"), std::string::npos);
}

TEST(Checks, GrantOffTheIncrementGridFails) {
  NetworkSnapshot snap = line_snapshot();
  snap.conns[0].reserved_kbps = 125.0;
  Problems p;
  check_grants(snap, p);
  EXPECT_EQ(p.size(), 1u);
  snap.conns[0].reserved_kbps = 550.0;
  Problems q;
  check_grants(snap, q);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Checks, PrimaryOverFailedLinkFails) {
  NetworkSnapshot snap = line_snapshot();
  snap.links[1].failed = true;
  Problems p;
  check_failed_links(snap, p);
  EXPECT_EQ(p.size(), 1u);
  snap.conns[0].recovering = true;  // a parked victim holds no primary
  Problems q;
  check_failed_links(snap, q);
  EXPECT_TRUE(q.empty());
}

TEST(Checks, BrokenWalkAndSharedBackupLinkFail) {
  NetworkSnapshot snap = line_snapshot();
  snap.conns[0].primary.nodes = {0, 2, 1};
  Problems p;
  check_paths(snap, false, p);
  EXPECT_EQ(p.size(), 1u);

  NetworkSnapshot shared = line_snapshot();
  shared.links.push_back(LinkSnap{0, 2, 1000.0, 0.0, 0.0, 0.0, false});
  shared.conns[0].backups.push_back(ChannelSnap{{0, 1, 2}, {0, 1}, {0, 1}});
  Problems q;
  check_paths(shared, false, q);
  EXPECT_TRUE(q.empty());
  check_paths(shared, true, q);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Checks, TorusPrimaryOneHopLongerFails) {
  const std::size_t rows = 5;
  const std::size_t cols = 6;
  const eqos::topology::Graph g = eqos::topology::generate_torus(rows, cols);
  const std::vector<GridCoord> coords = torus_coordinates(g, rows, cols);
  // Node (0,0) to (0,2) is two hops; the wrap-around makes (0,0) to (0,5) one.
  const NodeId a = 0;
  NodeId b = 0;
  NodeId wrap = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (coords[v].row == 0 && coords[v].col == 2) b = v;
    if (coords[v].row == 0 && coords[v].col == 5) wrap = v;
  }
  EXPECT_EQ(torus_distance(coords[a], coords[b], rows, cols), 2u);
  EXPECT_EQ(torus_distance(coords[a], coords[wrap], rows, cols), 1u);

  NetworkSnapshot snap;
  ConnSnap c;
  c.src = a;
  c.dst = b;
  c.primary.links = {0, 1};
  snap.conns.push_back(c);
  Problems ok;
  check_torus_hops(snap, coords, rows, cols, ok);
  EXPECT_TRUE(ok.empty());
  snap.conns[0].primary.links = {0, 1, 2};
  Problems longer;
  check_torus_hops(snap, coords, rows, cols, longer);
  EXPECT_EQ(longer.size(), 1u);
}

TEST(Checks, UnbalancedCountsFail) {
  Problems p;
  check_population_balance(10, 3, 2, 5, p);
  EXPECT_TRUE(p.empty());
  check_population_balance(10, 3, 2, 4, p);
  EXPECT_EQ(p.size(), 1u);

  Problems q;
  check_recovery_balance(9, 5, 2, 1, 1, q);
  EXPECT_TRUE(q.empty());
  check_recovery_balance(9, 5, 2, 1, 0, q);
  EXPECT_EQ(q.size(), 1u);

  // {gone, seen_recovered, plane_dropped, plane_recovered, terminations}
  Problems r;
  EXPECT_EQ(check_recovery_step({2, 0, 1, 0, 1}, r), 1u);  // a drop, a mid-recovery termination
  EXPECT_EQ(check_recovery_step({1, 2, 0, 3, 1}, r), 0u);  // recovered, then terminated
  EXPECT_EQ(check_recovery_step({1, 2, 1, 3, 0}, r), 0u);  // recovered, then severed again
  EXPECT_TRUE(r.empty());
  (void)check_recovery_step({2, 0, 1, 0, 0}, r);  // a departure that is neither
  EXPECT_EQ(r.size(), 1u);
  (void)check_recovery_step({0, 0, 1, 0, 1}, r);  // a drop the network does not show
  EXPECT_EQ(r.size(), 2u);
  (void)check_recovery_step({1, 1, 0, 0, 1}, r);  // a recovery the plane did not count
  EXPECT_EQ(r.size(), 3u);
  (void)check_recovery_step({1, 0, 0, 2, 1}, r);  // two unseen recoveries, one departure
  EXPECT_EQ(r.size(), 4u);
}

TEST(Checks, ModelDisagreementAndRisingBandwidthFail) {
  Problems p;
  check_model_agreement(LoadPoint{1000, 400.0, 390.0}, 0.05, p);
  EXPECT_TRUE(p.empty());
  check_model_agreement(LoadPoint{1000, 400.0, 370.0}, 0.05, p);
  EXPECT_EQ(p.size(), 1u);

  const std::vector<LoadPoint> falling{{250, 500.0, 499.9}, {500, 500.0, 500.0},
                                       {1000, 480.0, 470.0}};
  Problems q;
  check_monotone_decline(falling, 0.5, q);
  EXPECT_TRUE(q.empty());
  const std::vector<LoadPoint> rising{{1000, 480.0, 470.0}, {2000, 485.0, 460.0}};
  check_monotone_decline(rising, 0.5, q);
  EXPECT_EQ(q.size(), 1u);
}

/// A small version of a single-simulation workload.
SingleSpec small_spec(WorkloadKind kind) {
  SingleSpec spec = single_spec(kind, 3);
  if (kind == WorkloadKind::kTorusChurn) {
    spec.torus_rows = 20;
    spec.torus_cols = 30;
    spec.populate_attempts = 40;
    spec.churn_events = 100;
    spec.replay_queries = 5;
  } else {
    spec.populate_attempts = 800;
    spec.churn_events = 300;
    spec.replay_queries = 20;
  }
  return spec;
}

TEST(Checks, LiveNetworkPassesAndCorruptedSnapshotFails) {
  eqos::net::Network network(random_network(), eqos::net::NetworkConfig{});
  eqos::sim::Simulator simulator(network, small_spec(WorkloadKind::kRandomFailures).workload);
  (void)simulator.populate(800);
  simulator.run_events(300);
  Problems live;
  run_program_audits(network, live);
  NetworkSnapshot snap = take_snapshot(network);
  const Problems clean = all_snapshot_checks(snap, false);
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(clean.empty()) << clean.front();

  ASSERT_FALSE(snap.conns.empty());
  const LinkId l = snap.conns[0].primary.links.at(0);
  snap.links[l].committed_min += snap.conns[0].bmin;
  Problems p;
  check_link_reservations(snap, p);
  EXPECT_FALSE(p.empty());
}

class TracedRun : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(TracedRun, GivesTheUntracedOutputs) {
  const SingleSpec spec = small_spec(GetParam());
  const SingleOutcome plain = run_single(spec, Clock::now(), nullptr);
  SpanLog log("test");
  // The traced run reads the obs counters; turning them on must not change
  // the simulation either.
  const bool was_enabled = eqos::obs::set_metrics_enabled(true);
  const SingleOutcome traced = run_single(spec, Clock::now(), &log);
  eqos::obs::set_metrics_enabled(was_enabled);
  EXPECT_TRUE(plain.problems.empty()) << plain.problems.front();
  EXPECT_TRUE(traced.problems.empty()) << traced.problems.front();
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.estimates.mean_bandwidth_kbps, traced.estimates.mean_bandwidth_kbps);
  EXPECT_EQ(plain.estimates.pf, traced.estimates.pf);
  EXPECT_EQ(plain.analytic_kbps, traced.analytic_kbps);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(log.durations("net.arrival").size() + log.durations("net.termination").size() +
                log.durations("net.failure").size(),
            spec.churn_events);
  EXPECT_GT(traced.routes.queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedRun,
                         ::testing::Values(WorkloadKind::kTorusChurn,
                                           WorkloadKind::kRandomFailures,
                                           WorkloadKind::kRandomRecovery));

TEST(Fig2Sweep, CellsMatchAtOneThreadAndAtThePoolSize) {
  const std::vector<eqos::core::SweepPoint> points =
      fig2_points(random_network(), 5, {500, 2000, 4000}, 100, 300);
  eqos::core::SweepOptions serial;
  serial.threads = 1;
  eqos::core::SweepOptions pooled;
  pooled.threads = std::max(2u, std::thread::hardware_concurrency());
  const eqos::core::SweepOutcome a = eqos::core::run_sweep(points, serial);
  const eqos::core::SweepOutcome b = eqos::core::run_sweep(points, pooled);
  ASSERT_EQ(a.results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(same_outputs(a.results[i], b.results[i])) << "cell " << i;
    // The benchmark's step-by-step re-run, traced, matches too.
    SpanLog log("cell");
    const CellOutcome c = run_cell(points[i], &log);
    EXPECT_TRUE(c.problems.empty()) << c.problems.front();
    EXPECT_TRUE(same_outputs(a.results[i], c.result)) << "cell " << i;
  }
}

}  // namespace
}  // namespace perfbench
