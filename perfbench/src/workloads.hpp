// The benchmark's workloads.
//
// Every workload is a fixed amount of work set by the seed: fixed
// connection and event counts, never a time budget.  All of them use the
// paper's 9-state QoS [100, 500] Kb/s with increment 50 and
// lambda = mu = 1e-3.  perfbench/README.md gives the sizes, the seeds and
// why each workload is there.
//
//   fig2_sweep       the Figure 2 load axis on the Random network (gamma = 0)
//                    through core::run_sweep on up to nproc threads
//   torus_churn      arrivals and terminations on a 250 x 400 torus
//   random_failures  the Random network at 3000 connections with
//                    gamma = lambda, synchronous switchover
//   random_recovery  the same with the event-driven recovery plane on and
//                    lossy signalling
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "net/network.hpp"
#include "sim/recovery.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = SpanLog::Clock;

enum class WorkloadKind { kFig2Sweep, kTorusChurn, kRandomFailures, kRandomRecovery };

/// Parses a workload name; false when unknown.
[[nodiscard]] bool parse_workload(std::string_view name, WorkloadKind& out);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run prints.
struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  Problems problems;  ///< empty when every output check passed
};

struct RunOptions {
  std::uint64_t seed = 0;
  bool trace = false;
  /// Directory the traced run writes its spans to (empty: not written).
  std::string trace_dir;
  /// Taken first thing in main(): set-up is timed from the process's start.
  Clock::time_point process_start = Clock::now();
};

/// Runs one workload: with `trace` off it reports the end-to-end metrics,
/// with `trace` on the per-layer metrics.
[[nodiscard]] RunReport run_workload(WorkloadKind kind, const RunOptions& options);

// ---- Building blocks, exposed for the benchmark's own tests ---------------

/// The paper's Random network: one fixed 100-node Waxman instance.
[[nodiscard]] const eqos::topology::Graph& random_network();

/// Route searches replayed on a net::Router built over a copy of the live
/// link ledgers.
struct RouteReplay {
  std::vector<double> primary_s;
  std::vector<double> backup_s;
  std::size_t queries = 0;
  std::size_t found = 0;  ///< queries that found both a primary and a backup
};

/// Replays the (src, dst, bmin) of up to `queries` active connections, picked
/// with `seed`, on a Router over copies of `network`'s ledgers.
void replay_routes(const eqos::net::Network& network, std::uint64_t seed,
                   std::size_t queries, RouteReplay& out);

/// A single-simulation workload (everything but fig2_sweep).
struct SingleSpec {
  std::size_t torus_rows = 0;  ///< 0: the Random (Waxman) network
  std::size_t torus_cols = 0;
  eqos::net::NetworkConfig network;
  eqos::sim::WorkloadConfig workload;
  std::size_t populate_attempts = 0;
  std::size_t churn_events = 0;  ///< counted events (arrivals, terminations, failures)
  std::size_t replay_queries = 0;  ///< per sampled instant, traced runs only
  /// Replications (distinct workload seeds) per untraced benchmark run, and
  /// executions of each: timings are medians over replications of each
  /// replication's fastest execution.
  std::size_t replications = 1;
  std::size_t executions = 1;
};

[[nodiscard]] SingleSpec single_spec(WorkloadKind kind, std::uint64_t seed);

/// Everything one run of a SingleSpec produces.
struct SingleOutcome {
  double setup_s = 0.0;  ///< process start (or call) to initial population
  double churn_s = 0.0;
  double model_s = 0.0;  ///< recorder estimates + chain solve
  std::size_t churn_events = 0;  ///< arrivals, terminations, failures, repairs
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  eqos::sim::ModelEstimates estimates;
  double analytic_kbps = 0.0;
  eqos::net::NetworkStats stats;
  eqos::sim::SimulationStats sim_stats;
  eqos::sim::RecoveryPlaneStats recovery;
  Problems problems;
  RouteReplay routes;  ///< traced runs only
};

/// Runs `spec`; set-up is timed from `start`.  With a span log, every churn
/// event is run and timed on its own and route searches are replayed at
/// sampled instants (outside the timed work).
[[nodiscard]] SingleOutcome run_single(const SingleSpec& spec, Clock::time_point start,
                                       SpanLog* log);

/// The Figure 2 load axis.
[[nodiscard]] std::vector<std::size_t> fig2_loads();

/// One sweep point per load on `graph`, each with its own workload seed.
[[nodiscard]] std::vector<eqos::core::SweepPoint> fig2_points(
    const eqos::topology::Graph& graph, std::uint64_t seed,
    const std::vector<std::size_t>& loads, std::size_t warmup_events,
    std::size_t measure_events);

/// A sweep cell re-run by the benchmark through the simulator's public API,
/// step for step as core::run_experiment runs it, so that the end state can
/// be checked and (with a span log) every event timed.
struct CellOutcome {
  eqos::core::ExperimentResult result;  ///< timings left zero
  double busy_s = 0.0;                  ///< timed work, replays excluded
  std::uint64_t digest = 0;
  Problems problems;
  bool threw = false;
  RouteReplay routes;
};

[[nodiscard]] CellOutcome run_cell(const eqos::core::SweepPoint& point, SpanLog* log);

/// True when the simulation outputs of a cell re-run match the sweep's.
[[nodiscard]] bool same_outputs(const eqos::core::ExperimentResult& a,
                                const eqos::core::ExperimentResult& b);

}  // namespace perfbench
