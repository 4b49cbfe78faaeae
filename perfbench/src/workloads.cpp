#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <thread>

#include "core/analyzer.hpp"
#include "obs/metrics.hpp"
#include "sim/recorder.hpp"
#include "topology/regular.hpp"
#include "topology/waxman.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace core = eqos::core;
namespace net = eqos::net;
namespace sim = eqos::sim;
namespace topology = eqos::topology;

/// The paper's Random network is one fixed Waxman instance (topology seed 7,
/// as in the repository's macro benches); --seed varies the workload only.
constexpr std::uint64_t kTopologySeed = 7;
/// Figure 2 warm-up and measured churn per cell.  At the repository's
/// full-length protocol (1500 measured events) the chain estimated at light
/// load is too noisy on some seeds for the model-agreement claim; at 3000
/// the largest gap over 30 seeds was 5.2%.
constexpr std::size_t kFig2Warmup = 300;
constexpr std::size_t kFig2Measure = 3000;
/// Identical sweeps per untraced fig2_sweep run.  Other tenants of the
/// machine slow a run in bursts; the fastest of repeated identical work is
/// far steadier from run to run than any single timing or their mean.
constexpr std::size_t kFig2Sweeps = 2;
/// Largest relative gap between analytic and simulated E[B] accepted at any
/// Figure 2 point.
constexpr double kModelTolerance = 0.08;
/// Rise of E[B] from one load to the next still read as "not increasing":
/// 1% of Bmax.  At light loads neighbouring points differ by a few Kb/s in
/// expectation and a finite window can swap them (1.3 Kb/s at worst over 30
/// seeds).
constexpr double kMonotoneSlackKbps = 5.0;
/// Route queries replayed per sampled instant of each Figure 2 cell.
constexpr std::size_t kFig2ReplayQueries = 40;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent stream `stream` of the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ (stream * 0xd1b54a32d192ed03ULL));
}

net::ElasticQosSpec paper_qos() {
  net::ElasticQosSpec q;
  q.bmin_kbps = 100.0;
  q.bmax_kbps = 500.0;
  q.increment_kbps = 50.0;
  q.utility = 1.0;
  return q;
}

sim::WorkloadConfig paper_workload(std::uint64_t seed) {
  sim::WorkloadConfig wl;
  wl.qos = paper_qos();
  wl.arrival_rate = 1e-3;
  wl.termination_rate = 1e-3;
  wl.failure_rate = 0.0;
  wl.seed = seed;
  return wl;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linear-interpolated percentile `q` (0..100); 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

std::vector<double> to_us(std::vector<double> s) {
  for (double& x : s) x *= 1e6;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::size_t churn_count(const sim::SimulationStats& s) {
  return s.arrival_events + s.termination_events + s.failure_events + s.repair_events;
}

std::size_t countable_count(const sim::SimulationStats& s) {
  return s.arrival_events + s.termination_events + s.failure_events;
}

/// Network events behind the per-event ratios: every connection request
/// (initial population included), termination and failure.
std::size_t network_events(const sim::SimulationStats& s) {
  return s.populate_attempts + countable_count(s);
}

/// Runs one counted event under a span named after the kind whose counter
/// advanced (repairs and recovery-plane events ride along with it).
void run_one_event(sim::Simulator& simulator, SpanLog& log, std::size_t parent) {
  const sim::SimulationStats before = simulator.stats();
  const std::size_t span = log.begin("sim.event", parent);
  simulator.run_events(1);
  log.end(span);
  const sim::SimulationStats& after = simulator.stats();
  if (after.failure_events != before.failure_events)
    log.rename(span, "net.failure");
  else if (after.arrival_events != before.arrival_events)
    log.rename(span, "net.arrival");
  else if (after.termination_events != before.termination_events)
    log.rename(span, "net.termination");
}

/// Follows the network's recovering connections across simulation steps.  A
/// connection the workload terminates mid-recovery is cancelled by the
/// recovery plane without being counted, so the plane's counters balance only
/// with that number, which this counts from the network's side.
class RecoveryWatch {
 public:
  RecoveryWatch(const net::Network& network, const sim::Simulator& simulator)
      : network_(network), simulator_(simulator) {
    rescan();
  }

  void before_step() {
    terminations_before_ = simulator_.stats().termination_events;
    plane_before_ = simulator_.recovery()->stats();
  }

  void after_step(Problems& out) {
    const sim::RecoveryPlaneStats& plane = simulator_.recovery()->stats();
    RecoveryStep step;
    for (const net::ConnectionId id : recovering_) {
      if (!network_.is_active(id))
        ++step.gone;
      else if (!network_.is_recovering(id))
        ++step.seen_recovered;
    }
    step.plane_dropped = plane.dropped - plane_before_.dropped;
    step.plane_recovered = plane.recovered - plane_before_.recovered;
    step.terminations = simulator_.stats().termination_events - terminations_before_;
    terminated_ += check_recovery_step(step, out);
    rescan();
  }

  [[nodiscard]] std::uint64_t terminated() const { return terminated_; }
  [[nodiscard]] std::uint64_t in_flight() const { return recovering_.size(); }

 private:
  void rescan() {
    recovering_.clear();
    for (const net::ConnectionId id : network_.active_ids())
      if (network_.is_recovering(id)) recovering_.push_back(id);
  }

  const net::Network& network_;
  const sim::Simulator& simulator_;
  std::vector<net::ConnectionId> recovering_;
  std::size_t terminations_before_ = 0;
  sim::RecoveryPlaneStats plane_before_;
  std::uint64_t terminated_ = 0;
};

std::uint64_t counter_value(const eqos::obs::MetricsSnapshot& s, const char* name) {
  const auto* e = s.find(name);
  return e == nullptr ? 0 : e->count;
}

/// The checks every workload runs on a live network.
void check_network(const net::Network& network, bool torus, std::size_t rows,
                   std::size_t cols, Problems& out) {
  const NetworkSnapshot snap = take_snapshot(network);
  check_link_reservations(snap, out);
  check_grants(snap, out);
  check_failed_links(snap, out);
  check_paths(snap, torus, out);
  if (torus)
    check_torus_hops(snap, torus_coordinates(network.graph(), rows, cols), rows, cols, out);
  run_program_audits(network, out);
  const net::NetworkStats& s = network.stats();
  check_population_balance(s.accepted, s.terminated, s.connections_dropped,
                           network.num_active(), out);
}

void write_spans(const std::string& dir, const std::string& name, std::uint64_t seed,
                 const std::vector<const SpanLog*>& logs) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir + "/" + name + "-seed" + std::to_string(seed) + ".json");
  out.precision(12);
  out << "{\"workload\": \"" << name << "\", \"seed\": " << seed << ", \"logs\": [\n";
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (i) out << ",\n";
    logs[i]->write_json(out);
  }
  out << "]}\n";
}

/// Per-layer metrics shared by every workload, in print order.
struct LayerMetrics {
  std::vector<Metric> list;
  void add(const char* name, double value, const char* unit) {
    list.push_back(Metric{name, value, unit});
  }
  void add_timing(const char* stem, const std::vector<double>& seconds) {
    const std::vector<double> us = to_us(seconds);
    list.push_back(Metric{std::string(stem) + ".p50", percentile(us, 50.0), "us"});
    list.push_back(Metric{std::string(stem) + ".p99", percentile(us, 99.0), "us"});
  }
};

/// Durations of the spans named `name` across several logs.
std::vector<double> durations(const std::vector<const SpanLog*>& logs, const char* name) {
  std::vector<double> all;
  for (const SpanLog* log : logs) {
    const std::vector<double> d = log->durations(name);
    all.insert(all.end(), d.begin(), d.end());
  }
  return all;
}

/// Inputs of the per-layer report that differ between the sweep and the
/// single-simulation workloads.
struct LayerInputs {
  std::vector<const SpanLog*> logs;
  std::vector<const RouteReplay*> routes;
  net::NetworkStats stats;  ///< summed over cells
  sim::SimulationStats sim_stats;
  sim::RecoveryPlaneStats recovery;
  std::uint64_t retreats = 0;
  std::uint64_t redistributes = 0;
  double populate_s = 0.0;
  double recorder_estimates_s = 0.0;  ///< per call (median over cells)
  double analyze_s = 0.0;
  double pf = 0.0;
  double ps = 0.0;
  double cell_max_s = 0.0;
  double cell_sum_s = 0.0;
  double makespan_s = 0.0;
  double threads = 1.0;
  double overhead = 0.0;
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  LayerMetrics m;
  std::vector<double> primary;
  std::vector<double> backup;
  std::size_t queries = 0;
  std::size_t found = 0;
  for (const RouteReplay* r : in.routes) {
    primary.insert(primary.end(), r->primary_s.begin(), r->primary_s.end());
    backup.insert(backup.end(), r->backup_s.begin(), r->backup_s.end());
    queries += r->queries;
    found += r->found;
  }
  m.add_timing("topology.route_primary_us", primary);
  m.add_timing("topology.route_backup_us", backup);
  m.add("topology.route_found_ratio", ratio(static_cast<double>(found),
                                            static_cast<double>(queries)), "ratio");
  m.add("topology.route_queries", static_cast<double>(queries), "count");

  const std::vector<double> arrivals = durations(in.logs, "net.arrival");
  const std::vector<double> terminations = durations(in.logs, "net.termination");
  const std::vector<double> failures = durations(in.logs, "net.failure");
  m.add_timing("net.arrival_us", arrivals);
  m.add_timing("net.termination_us", terminations);
  const auto events = static_cast<double>(network_events(in.sim_stats));
  m.add("net.populate_us_per_attempt",
        ratio(in.populate_s * 1e6, static_cast<double>(in.sim_stats.populate_attempts)), "us");
  m.add("net.admit_ratio", ratio(static_cast<double>(in.stats.accepted),
                                 static_cast<double>(in.stats.requests)), "ratio");
  m.add("net.retreats_per_event", ratio(static_cast<double>(in.retreats), events),
        "count/event");
  m.add("net.redistributes_per_event", ratio(static_cast<double>(in.redistributes), events),
        "count/event");
  m.add("net.quanta_adjustments_per_event",
        ratio(static_cast<double>(in.stats.quanta_adjustments), events), "count/event");
  m.add_timing("net.failure_us", failures);
  m.add("net.backups_activated", static_cast<double>(in.stats.backups_activated), "count");
  m.add("net.backups_reestablished", static_cast<double>(in.stats.backups_reestablished),
        "count");

  m.add("sim.recovery.signals_sent", static_cast<double>(in.recovery.signals_sent), "count");
  m.add("sim.recovery.signals_lost", static_cast<double>(in.recovery.signals_lost), "count");
  m.add("sim.recovery.fallbacks", static_cast<double>(in.recovery.fallbacks), "count");
  m.add("sim.recovery.recovered", static_cast<double>(in.recovery.recovered), "count");
  m.add("sim.recovery.deadline_misses", static_cast<double>(in.recovery.deadline_misses),
        "count");
  std::vector<double> all_events = arrivals;
  all_events.insert(all_events.end(), terminations.begin(), terminations.end());
  all_events.insert(all_events.end(), failures.begin(), failures.end());
  m.add_timing("sim.event_us", all_events);
  m.add("sim.events_traced", static_cast<double>(all_events.size()), "count");
  m.add("sim.recorder_estimates_us", in.recorder_estimates_s * 1e6, "us");

  m.add("markov.analyze_us", in.analyze_s * 1e6, "us");
  m.add("markov.pf", in.pf, "probability");
  m.add("markov.ps", in.ps, "probability");

  m.add("core.cell_s.max", in.cell_max_s, "s");
  m.add("core.cell_s.sum", in.cell_sum_s, "s");
  m.add("core.sweep_speedup", ratio(in.cell_sum_s, in.makespan_s), "ratio");
  m.add("core.threads", in.threads, "count");

  m.add("obs.overhead_ratio", in.overhead, "ratio");
  return m.list;
}

void add_sim_stats(sim::SimulationStats& into, const sim::SimulationStats& s) {
  into.arrival_events += s.arrival_events;
  into.termination_events += s.termination_events;
  into.failure_events += s.failure_events;
  into.repair_events += s.repair_events;
  into.populate_attempts += s.populate_attempts;
  into.populate_accepted += s.populate_accepted;
}

void add_net_stats(net::NetworkStats& into, const net::NetworkStats& s) {
  into.requests += s.requests;
  into.accepted += s.accepted;
  into.quanta_adjustments += s.quanta_adjustments;
  into.backups_activated += s.backups_activated;
  into.backups_reestablished += s.backups_reestablished;
}

std::size_t pool_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// ---- fig2_sweep -------------------------------------------------------------

RunReport run_fig2(const RunOptions& options) {
  RunReport report;
  const topology::Graph& graph = random_network();
  const double graph_s = seconds_between(options.process_start, Clock::now());
  const std::vector<std::size_t> loads = fig2_loads();
  const std::vector<core::SweepPoint> points =
      fig2_points(graph, options.seed, loads, kFig2Warmup, kFig2Measure);

  core::SweepOptions sweep_options;
  sweep_options.threads = std::min(pool_threads(), points.size());
  // The same sweep runs kFig2Sweeps times (once when tracing); the timings
  // are the fastest sweep's, set-up is the first (cold) one's.
  const std::size_t repetitions = options.trace ? 1 : kFig2Sweeps;
  core::SweepOutcome sweep;
  std::vector<double> run_s;
  std::vector<double> makespan_s;
  std::vector<double> events_per_s;
  double setup_s = graph_s;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    const Clock::time_point sweep_start = Clock::now();
    core::SweepOutcome outcome = core::run_sweep(points, sweep_options);
    const double makespan = seconds_between(sweep_start, Clock::now());
    makespan_s.push_back(makespan);
    run_s.push_back(graph_s + makespan);
    double churn_s = 0.0;
    std::size_t churn_events = 0;
    for (const core::ExperimentResult& r : outcome.results) {
      if (rep == 0) setup_s += r.timings.populate_seconds;
      churn_s += r.timings.warmup_seconds + r.timings.measure_seconds;
      churn_events += churn_count(r.sim_stats);
    }
    events_per_s.push_back(ratio(static_cast<double>(churn_events), churn_s));
    if (rep == 0) {
      sweep = std::move(outcome);
      continue;
    }
    for (std::size_t i = 0; i < points.size(); ++i)
      if (!same_outputs(sweep.results[i], outcome.results[i]))
        report.problems.push_back("cell " + points[i].label +
                                  ": a repeated sweep gave other results");
  }
  const double rss_mb = peak_rss_mb();

  double cell_sum_s = 0.0;
  double cell_max_s = 0.0;
  for (const core::ExperimentResult& r : sweep.results) {
    cell_sum_s += r.timings.total_seconds();
    cell_max_s = std::max(cell_max_s, r.timings.total_seconds());
  }

  // Every cell is re-run through the simulator's public API so its end
  // state can be checked; its outputs must equal the sweep's.  A traced run
  // then re-runs the cells once more with every event timed, on the same
  // pool, so the tracing overhead compares like with like.
  std::vector<SpanLog> logs;
  for (std::size_t i = 0; i < points.size(); ++i)
    logs.emplace_back("cell " + points[i].label);
  eqos::util::ThreadPool pool(sweep_options.threads);
  const auto rerun = [&](bool traced) {
    std::vector<CellOutcome> out(points.size());
    pool.parallel_for(points.size(), [&](std::size_t i) {
      out[i] = run_cell(points[i], traced ? &logs[i] : nullptr);
    });
    return out;
  };
  const std::vector<CellOutcome> cells = rerun(false);
  std::vector<CellOutcome> traced_cells;
  eqos::obs::MetricsSnapshot before;
  eqos::obs::MetricsSnapshot after;
  if (options.trace) {
    eqos::obs::set_metrics_enabled(true);
    before = eqos::obs::MetricsRegistry::global().snapshot();
    traced_cells = rerun(true);
    after = eqos::obs::MetricsRegistry::global().snapshot();
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (const std::string& what : traced_cells[i].problems)
        report.problems.push_back("traced cell " + points[i].label + ": " + what);
      if (traced_cells[i].digest != cells[i].digest ||
          !same_outputs(traced_cells[i].result, cells[i].result))
        report.problems.push_back("traced cell " + points[i].label +
                                  ": simulation outputs differ from the untraced re-run's");
    }
  }

  std::vector<LoadPoint> axis;
  std::vector<bool> cell_failed(points.size(), false);
  for (const core::SweepCellFailure& f : sweep.report.failures) {
    cell_failed[f.point] = true;
    report.problems.push_back("sweep cell " + points[f.point].label + " threw: " + f.error);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::ExperimentResult& r = sweep.results[i];
    const CellOutcome& c = cells[i];
    Problems cell_problems = c.problems;
    if (!c.threw && !same_outputs(r, c.result))
      cell_problems.push_back("re-run of the cell differs from the sweep's result");
    const LoadPoint p{loads[i], r.sim_mean_bandwidth_kbps, r.analytic_paper_kbps};
    std::cerr << "fig2_sweep: load " << p.load << " simulated E[B] " << p.sim_kbps
              << " analytic " << p.analytic_kbps << " Kb/s\n";
    check_model_agreement(p, kModelTolerance, cell_problems);
    axis.push_back(p);
    if (!cell_problems.empty()) cell_failed[i] = true;
    for (const std::string& what : cell_problems)
      report.problems.push_back("cell " + points[i].label + ": " + what);
  }
  check_monotone_decline(axis, kMonotoneSlackKbps, report.problems);

  report.attempted = points.size();
  report.failed = static_cast<std::size_t>(std::count(cell_failed.begin(), cell_failed.end(), true));

  if (!options.trace) {
    report.metrics = {
        {"run_s", *std::min_element(run_s.begin(), run_s.end()), "s"},
        {"setup_s", setup_s, "s"},
        {"churn_events_per_s", *std::max_element(events_per_s.begin(), events_per_s.end()),
         "events/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return report;
  }

  LayerInputs in;
  std::vector<double> estimates_s;
  std::vector<double> analyze_s;
  double traced_busy_s = 0.0;
  double untraced_busy_s = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CellOutcome& c = traced_cells[i];
    in.logs.push_back(&logs[i]);
    in.routes.push_back(&c.routes);
    add_net_stats(in.stats, c.result.network_stats);
    add_sim_stats(in.sim_stats, c.result.sim_stats);
    in.populate_s += logs[i].total("populate");
    estimates_s.push_back(logs[i].total("sim.recorder_estimates"));
    analyze_s.push_back(logs[i].total("markov.analyze"));
    in.pf += c.result.estimates.pf / static_cast<double>(points.size());
    in.ps += c.result.estimates.ps / static_cast<double>(points.size());
    traced_busy_s += c.busy_s;
    untraced_busy_s += cells[i].busy_s;
  }
  in.retreats = counter_value(after, "net.retreats") - counter_value(before, "net.retreats");
  in.redistributes =
      counter_value(after, "net.redistributes") - counter_value(before, "net.redistributes");
  in.recorder_estimates_s = median(estimates_s);
  in.analyze_s = median(analyze_s);
  in.cell_max_s = cell_max_s;
  in.cell_sum_s = cell_sum_s;
  in.makespan_s = makespan_s.front();
  in.threads = static_cast<double>(sweep_options.threads);
  in.overhead = ratio(traced_busy_s, untraced_busy_s);
  report.metrics = layer_metrics(in);
  write_spans(options.trace_dir, "fig2_sweep", options.seed, in.logs);
  return report;
}

// ---- single-simulation workloads --------------------------------------------

RunReport run_single_workload(WorkloadKind kind, const RunOptions& options) {
  RunReport report;
  const SingleSpec spec = single_spec(kind, options.seed);
  const SingleOutcome base = run_single(spec, options.process_start, nullptr);
  const double run_s = base.setup_s + base.churn_s + base.model_s;
  report.attempted = base.attempted;
  report.failed = base.failed;
  report.problems = base.problems;
  if (!options.trace) {
    // spec.replications replications, each with its own workload seed drawn
    // from --seed and each executed spec.executions times, one round of all
    // replications after another so that a burst of contention from other
    // tenants rarely covers every execution of one replication.  Run time
    // and event rate are the medians over replications of each one's
    // fastest execution; set-up is the first (cold) execution's.
    std::vector<SingleSpec> replicas(spec.replications, spec);
    for (std::size_t rep = 1; rep < spec.replications; ++rep)
      replicas[rep].workload.seed = derive_seed(options.seed, 10 + rep);
    std::vector<double> run_times(spec.replications, 0.0);
    std::vector<double> event_rates(spec.replications, 0.0);
    std::vector<std::uint64_t> digests(spec.replications, 0);
    for (std::size_t k = 0; k < spec.executions; ++k) {
      for (std::size_t rep = 0; rep < spec.replications; ++rep) {
        const bool first = rep == 0 && k == 0;
        const SingleOutcome out =
            first ? base : run_single(replicas[rep], Clock::now(), nullptr);
        const std::string which = "replication " + std::to_string(rep) + ": ";
        if (!first) {
          for (const std::string& p : out.problems) report.problems.push_back(which + p);
          report.attempted += out.attempted;
          report.failed += out.failed;
        }
        const double t = out.setup_s + out.churn_s + out.model_s;
        const double rate = ratio(static_cast<double>(out.churn_events), out.churn_s);
        if (k == 0) {
          digests[rep] = out.digest;
          run_times[rep] = t;
        } else if (out.digest != digests[rep]) {
          report.problems.push_back(which + "a repeated execution gave other outputs");
        }
        run_times[rep] = std::min(run_times[rep], t);
        event_rates[rep] = std::max(event_rates[rep], rate);
      }
    }
    report.metrics = {
        {"run_s", median(run_times), "s"},
        {"setup_s", base.setup_s, "s"},
        {"churn_events_per_s", median(event_rates), "events/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return report;
  }

  // The traced pass repeats the untraced one event by event; its simulation
  // outputs must be identical.
  eqos::obs::set_metrics_enabled(true);
  const eqos::obs::MetricsSnapshot before = eqos::obs::MetricsRegistry::global().snapshot();
  const char* name = kind == WorkloadKind::kTorusChurn      ? "torus_churn"
                     : kind == WorkloadKind::kRandomFailures ? "random_failures"
                                                             : "random_recovery";
  SpanLog log(name);
  const SingleOutcome traced = run_single(spec, Clock::now(), &log);
  const eqos::obs::MetricsSnapshot after = eqos::obs::MetricsRegistry::global().snapshot();
  for (const std::string& p : traced.problems) report.problems.push_back("traced: " + p);
  if (traced.digest != base.digest ||
      traced.estimates.mean_bandwidth_kbps != base.estimates.mean_bandwidth_kbps ||
      traced.estimates.pf != base.estimates.pf || traced.estimates.ps != base.estimates.ps ||
      traced.analytic_kbps != base.analytic_kbps)
    report.problems.push_back("traced run's simulation outputs differ from the untraced run's");

  LayerInputs in;
  in.logs = {&log};
  in.routes = {&traced.routes};
  in.stats = traced.stats;
  in.sim_stats = traced.sim_stats;
  in.recovery = traced.recovery;
  in.retreats = counter_value(after, "net.retreats") - counter_value(before, "net.retreats");
  in.redistributes =
      counter_value(after, "net.redistributes") - counter_value(before, "net.redistributes");
  in.populate_s = log.total("populate");
  in.recorder_estimates_s = log.total("sim.recorder_estimates");
  in.analyze_s = log.total("markov.analyze");
  in.pf = traced.estimates.pf;
  in.ps = traced.estimates.ps;
  in.cell_max_s = run_s;
  in.cell_sum_s = run_s;
  in.makespan_s = run_s;
  in.threads = 1.0;
  in.overhead = ratio(traced.setup_s + traced.churn_s + traced.model_s, run_s);
  report.metrics = layer_metrics(in);
  write_spans(options.trace_dir, name, options.seed, in.logs);
  return report;
}

}  // namespace

const topology::Graph& random_network() {
  static const topology::Graph g =
      topology::generate_waxman({100, 0.33, 0.20, true}, kTopologySeed);
  return g;
}

bool parse_workload(std::string_view name, WorkloadKind& out) {
  if (name == "fig2_sweep") out = WorkloadKind::kFig2Sweep;
  else if (name == "torus_churn") out = WorkloadKind::kTorusChurn;
  else if (name == "random_failures") out = WorkloadKind::kRandomFailures;
  else if (name == "random_recovery") out = WorkloadKind::kRandomRecovery;
  else return false;
  return true;
}

RunReport run_workload(WorkloadKind kind, const RunOptions& options) {
  if (kind == WorkloadKind::kFig2Sweep) return run_fig2(options);
  return run_single_workload(kind, options);
}

void replay_routes(const net::Network& network, std::uint64_t seed, std::size_t queries,
                   RouteReplay& out) {
  const std::vector<net::ConnectionId>& ids = network.active_ids();
  if (ids.empty() || queries == 0) return;
  const topology::Graph& graph = network.graph();
  std::vector<net::LinkState> links;
  links.reserve(graph.num_links());
  topology::HopDistanceField goal(graph);
  for (topology::LinkId l = 0; l < graph.num_links(); ++l) {
    links.push_back(network.link_state(l));
    if (links.back().failed()) goal.set_link_usable(l, false);
  }
  const net::BackupManager backups = network.backups();
  const net::Router router(graph, links, backups, network.config().route_policy, &goal);
  std::mt19937_64 pick(seed);
  for (std::size_t q = 0; q < queries; ++q) {
    const net::DrConnection& c = network.connection(ids[pick() % ids.size()]);
    (void)goal.to_destination(c.dst);  // the live router's field is warm too
    Clock::time_point t = Clock::now();
    const auto primary = router.find_primary(c.src, c.dst, c.qos.bmin_kbps);
    out.primary_s.push_back(seconds_between(t, Clock::now()));
    ++out.queries;
    if (!primary) continue;
    const eqos::util::DynamicBitset bits = primary->link_set(graph.num_links());
    t = Clock::now();
    const auto backup = router.find_backup(c.src, c.dst, c.qos.bmin_kbps, bits,
                                           network.config().require_full_disjoint);
    out.backup_s.push_back(seconds_between(t, Clock::now()));
    if (backup) ++out.found;
  }
}

SingleSpec single_spec(WorkloadKind kind, std::uint64_t seed) {
  SingleSpec spec;
  spec.workload = paper_workload(derive_seed(seed, 1));
  if (kind == WorkloadKind::kTorusChurn) {
    spec.torus_rows = 250;
    spec.torus_cols = 400;
    spec.populate_attempts = 150;
    spec.churn_events = 300;
    spec.replications = 3;
    spec.replay_queries = 20;
    return spec;
  }
  spec.populate_attempts = 3000;
  spec.churn_events = 600;
  // Replication r has the same inputs in both failure workloads; the
  // synchronous one runs more of them because each costs less than half.
  spec.replications = kind == WorkloadKind::kRandomRecovery ? 5 : 8;
  spec.executions = 2;
  spec.replay_queries = 200;
  spec.workload.failure_rate = spec.workload.arrival_rate;  // gamma = lambda
  spec.workload.repair_rate = 1e-2;
  if (kind == WorkloadKind::kRandomRecovery) {
    spec.network.recovery_protocol = true;
    spec.network.recovery_signal_loss_prob = 0.1;
  }
  return spec;
}

SingleOutcome run_single(const SingleSpec& spec, Clock::time_point start, SpanLog* log) {
  SingleOutcome out;
  const bool torus = spec.torus_rows != 0;
  const std::size_t root = log ? log->begin("run") : 0;
  const std::size_t setup_span = log ? log->begin("setup", root) : 0;
  net::Network network(torus ? topology::generate_torus(spec.torus_rows, spec.torus_cols)
                             : random_network(),
                       spec.network);
  sim::Simulator simulator(network, spec.workload);
  const std::size_t populate_span = log ? log->begin("populate", setup_span) : 0;
  (void)simulator.populate(spec.populate_attempts);
  if (log) {
    log->end(populate_span);
    log->end(setup_span);
  }
  out.setup_s = seconds_between(start, Clock::now());

  check_network(network, torus, spec.torus_rows, spec.torus_cols, out.problems);
  if (log) replay_routes(network, derive_seed(spec.workload.seed, 2), spec.replay_queries,
                         out.routes);

  sim::TransitionRecorder recorder(spec.workload.qos, simulator.now());
  simulator.attach_recorder(&recorder);
  const std::size_t churn_before = churn_count(simulator.stats());
  std::optional<RecoveryWatch> watch;
  if (simulator.recovery() != nullptr) watch.emplace(network, simulator);
  std::size_t done = 0;
  try {
    if (log == nullptr && !watch) {
      const Clock::time_point t = Clock::now();
      simulator.run_events(spec.churn_events);
      out.churn_s = seconds_between(t, Clock::now());
      done = spec.churn_events;
    } else {
      // Event by event; the recovery watch's bookkeeping is not timed.
      const std::size_t churn_span = log ? log->begin("churn", root) : 0;
      for (; done < spec.churn_events; ++done) {
        if (log && done == spec.churn_events / 2)
          replay_routes(network, derive_seed(spec.workload.seed, 3), spec.replay_queries,
                        out.routes);
        if (watch) watch->before_step();
        if (log) {
          run_one_event(simulator, *log, churn_span);
        } else {
          const Clock::time_point t = Clock::now();
          simulator.run_events(1);
          out.churn_s += seconds_between(t, Clock::now());
        }
        if (watch) watch->after_step(out.problems);
      }
      if (log) log->end(churn_span);
    }
  } catch (const std::exception& e) {
    out.problems.push_back("churn event " + std::to_string(done) + " threw: " + e.what());
  }
  if (log) {
    out.churn_s = log->total("net.arrival") + log->total("net.termination") +
                  log->total("net.failure") + log->total("sim.event");
  }
  out.attempted = spec.churn_events;
  out.failed = spec.churn_events - done;
  out.churn_events = churn_count(simulator.stats()) - churn_before;
  simulator.attach_recorder(nullptr);

  const Clock::time_point model_start = Clock::now();
  const std::size_t est_span = log ? log->begin("sim.recorder_estimates", root) : 0;
  out.estimates = recorder.estimates(simulator.now(), network);
  if (log) log->end(est_span);
  const std::size_t analyze_span = log ? log->begin("markov.analyze", root) : 0;
  out.analytic_kbps =
      core::analyze(out.estimates, spec.workload, core::Fidelity::kPaper).average_bandwidth_kbps;
  if (log) log->end(analyze_span);
  out.model_s = seconds_between(model_start, Clock::now());
  if (log) log->end(root);

  check_network(network, torus, spec.torus_rows, spec.torus_cols, out.problems);
  if (log) replay_routes(network, derive_seed(spec.workload.seed, 4), spec.replay_queries,
                         out.routes);
  out.stats = network.stats();
  out.sim_stats = simulator.stats();
  if (const sim::RecoveryPlane* plane = simulator.recovery()) {
    out.recovery = plane->stats();
    check_recovery_balance(out.recovery.severed, out.recovery.recovered, out.recovery.dropped,
                           watch->in_flight(), watch->terminated(), out.problems);
    if (plane->in_flight() != watch->in_flight())
      out.problems.push_back("recovery plane: " + std::to_string(plane->in_flight()) +
                             " recoveries in flight, the network has " +
                             std::to_string(watch->in_flight()) + " recovering connections");
  }
  out.digest = network_digest(network);
  return out;
}

std::vector<std::size_t> fig2_loads() {
  return {250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 6000, 7000, 8000};
}

std::vector<core::SweepPoint> fig2_points(const topology::Graph& graph, std::uint64_t seed,
                                          const std::vector<std::size_t>& loads,
                                          std::size_t warmup_events,
                                          std::size_t measure_events) {
  std::vector<core::SweepPoint> points;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    core::ExperimentConfig cfg;
    cfg.workload = paper_workload(derive_seed(seed, 100 + i));
    cfg.target_connections = loads[i];
    cfg.warmup_events = warmup_events;
    cfg.measure_events = measure_events;
    points.push_back({&graph, cfg, std::to_string(loads[i])});
  }
  return points;
}

CellOutcome run_cell(const core::SweepPoint& point, SpanLog* log) {
  CellOutcome out;
  core::ExperimentResult& r = out.result;
  const core::ExperimentConfig& cfg = point.config;
  try {
    const Clock::time_point start = Clock::now();
    const std::size_t root = log ? log->begin("cell") : 0;
    const std::size_t populate_span = log ? log->begin("populate", root) : 0;
    net::Network network(*point.graph, cfg.network);
    sim::Simulator simulator(network, cfg.workload);
    r.established = simulator.populate(cfg.target_connections);
    r.attempted = simulator.stats().populate_attempts;
    if (log) log->end(populate_span);
    out.busy_s += seconds_between(start, Clock::now());
    if (log)
      replay_routes(network, derive_seed(cfg.workload.seed, 2), kFig2ReplayQueries,
                    out.routes);

    Clock::time_point mark = Clock::now();
    const auto run_events = [&](std::size_t n, std::size_t parent) {
      if (log == nullptr) {
        simulator.run_events(n);
        return;
      }
      for (std::size_t i = 0; i < n; ++i) run_one_event(simulator, *log, parent);
    };
    const std::size_t warmup_span = log ? log->begin("warmup", root) : 0;
    run_events(cfg.warmup_events, warmup_span);
    if (log) log->end(warmup_span);
    sim::TransitionRecorder recorder(cfg.workload.qos, simulator.now());
    simulator.attach_recorder(&recorder);
    const std::size_t measure_span = log ? log->begin("measure", root) : 0;
    run_events(cfg.measure_events, measure_span);
    if (log) log->end(measure_span);
    simulator.attach_recorder(nullptr);

    const std::size_t est_span = log ? log->begin("sim.recorder_estimates", root) : 0;
    r.estimates = recorder.estimates(simulator.now(), network);
    if (log) log->end(est_span);
    r.sim_mean_bandwidth_kbps = r.estimates.mean_bandwidth_kbps;
    const std::size_t analyze_span = log ? log->begin("markov.analyze", root) : 0;
    r.paper_analysis = core::analyze(r.estimates, cfg.workload, core::Fidelity::kPaper);
    r.refined_analysis = core::analyze(r.estimates, cfg.workload, core::Fidelity::kRefined);
    if (log) log->end(analyze_span);
    r.analytic_paper_kbps = r.paper_analysis.average_bandwidth_kbps;
    r.analytic_refined_kbps = r.refined_analysis.average_bandwidth_kbps;
    r.active_at_end = network.num_active();
    r.mean_hops = network.mean_primary_hops();
    r.protected_fraction = network.protected_fraction();
    r.network_stats = network.stats();
    r.sim_stats = simulator.stats();
    out.busy_s += seconds_between(mark, Clock::now());
    if (log) log->end(root);

    check_network(network, false, 0, 0, out.problems);
    if (log)
      replay_routes(network, derive_seed(cfg.workload.seed, 4), kFig2ReplayQueries,
                    out.routes);
    out.digest = network_digest(network);
  } catch (const std::exception& e) {
    out.threw = true;
    out.problems.push_back(std::string("threw: ") + e.what());
  }
  return out;
}

bool same_outputs(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  const net::NetworkStats& x = a.network_stats;
  const net::NetworkStats& y = b.network_stats;
  return a.attempted == b.attempted && a.established == b.established &&
         a.active_at_end == b.active_at_end &&
         a.sim_mean_bandwidth_kbps == b.sim_mean_bandwidth_kbps &&
         a.analytic_paper_kbps == b.analytic_paper_kbps &&
         a.analytic_refined_kbps == b.analytic_refined_kbps && a.mean_hops == b.mean_hops &&
         a.protected_fraction == b.protected_fraction && a.estimates.pf == b.estimates.pf &&
         a.estimates.ps == b.estimates.ps && x.requests == y.requests &&
         x.accepted == y.accepted && x.terminated == y.terminated &&
         x.quanta_adjustments == y.quanta_adjustments &&
         a.sim_stats.arrival_events == b.sim_stats.arrival_events &&
         a.sim_stats.termination_events == b.sim_stats.termination_events;
}

}  // namespace perfbench
