// Shared pieces of the benchmark program: clocks, a flat metric map, a
// minimal JSON writer, in-memory spans, and the description of one
// single simulation run ("sim view") that the layer probes replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "model/params.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "topology/multi_cluster.hpp"

namespace perfbench {

/// Monotonic wall seconds.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+system CPU seconds (all threads).
[[nodiscard]] double cpu_s();

[[nodiscard]] double median(std::vector<double> values);

/// "%a" rendering of a double: the bit-exact form outputs are pinned in.
[[nodiscard]] std::string hex(double value);

/// Net heap bytes (operator new minus sized delete) the calling thread
/// requests while one of these is alive. Counting is off otherwise; the
/// benchmark's replacement operators then only add one thread-local test
/// to malloc/free.
class CountBytes {
 public:
  CountBytes();
  ~CountBytes();
  CountBytes(const CountBytes&) = delete;
  CountBytes& operator=(const CountBytes&) = delete;
  [[nodiscard]] std::int64_t total() const { return bytes_; }

 private:
  std::int64_t bytes_ = 0;
};

/// Per-layer metric values by name (see BENCHMARK.json "per_layer").
using Metrics = std::map<std::string, double>;

/// Spans recorded by the benchmark around its calls into each layer
/// (traced runs only). Kept in memory, written out when the run ends.
class Spans {
 public:
  /// Open a span; returns its id. The parent is the innermost open span.
  int open(const std::string& name);
  void close(int id);
  /// Chrome trace_event JSON ("X" events, microseconds, args.parent).
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class Scope {
 public:
  Scope(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans != nullptr ? spans->open(name) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// One simulation run as the simulator sees it, plus what an untraced
/// and a probed execution of it measured.
struct SimView {
  mcs::topo::SystemConfig system;
  mcs::model::NetworkParams params;
  double lambda = 0.0;
  mcs::sim::SimConfig config;

  mcs::sim::SimResult result;       ///< untraced run's outputs
  double run_wall_s = 0.0;          ///< median untraced Simulator::run()
  double topology_build_s = 0.0;    ///< median MultiClusterTopology ctor
  double simulator_setup_s = 0.0;   ///< median Simulator ctor
  std::int64_t depth_max = 0;       ///< probed: max pending events
  double worm_lane_depth = 0.0;     ///< probed: mean pending worm events
  std::int64_t waiting_max = 0;     ///< probed: max blocked worms
};

/// The exp-layer view of a workload: the specs it sweeps, the results of
/// one untraced pass, and where that pass kept its cache and journals.
struct SweepView {
  std::vector<mcs::exp::ScenarioSpec> specs;
  std::vector<std::vector<mcs::exp::SweepResult>> passes;  ///< per pass
  std::string cache_dir;
  std::vector<std::string> journals;  ///< parallel to specs
};

/// Simulate `view` once with a probe attached at a fixed virtual-time
/// cadence (end_time / 256 of the untraced run) and fill depth_max,
/// worm_lane_depth and waiting_max. Returns the probed run's wall
/// seconds; throws when its result differs from the untraced one.
double probe_run(SimView& view, Spans* spans);

/// Layer probes over a simulation run: queue, engine, route memo,
/// traffic, RNG, statistics and simulator counters.
void sim_layers(const SimView& view, std::uint64_t seed, Metrics& out,
                Spans* spans);

/// Model layer: paper/refined predict() over every (system, params,
/// load) point of the specs, and the refined model's knee search.
void model_layers(const std::vector<mcs::exp::ScenarioSpec>& specs,
                  Metrics& out, Spans* spans);

/// Pool, sweep, result-cache and checkpoint layers, from the passes'
/// task telemetry and replays of their rows through the cache and
/// journal.
void exp_layers(const SweepView& view, const std::string& tmp_dir,
                Metrics& out, Spans* spans);

}  // namespace perfbench
