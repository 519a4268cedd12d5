// mcs_bench: runs one benchmark workload for a time budget and
// prints one JSON line of raw measurements (per-iteration timings and
// simulated outputs, and with --trace 1 the per-layer metrics).
// perfbench/run.py builds this program, runs it, checks the outputs and
// reports the metrics; see perfbench/README.md.
//
//   mcs_bench --workload <paper_repro|scale_32k|small_hetero>
//             --seed N --seconds S --trace 0|1
//             --scenario-dir DIR --work-dir DIR
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/sweep_io.hpp"
#include "exp/thread_pool.hpp"
#include "model/refined_model.hpp"
#include "obs/manifest.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 20060814;
  double seconds = 10.0;
  bool trace = false;
  std::string scenario_dir = "scenarios";
  std::string work_dir = ".bench_work";
  /// Pool threads: one per hardware thread.
  int threads = mcs::exp::ThreadPool::default_thread_count();
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--scenario-dir") o.scenario_dir = value;
    else if (key == "--work-dir") o.work_dir = value;
    else throw std::runtime_error("unknown option " + key);
  }
  return o;
}

// ------------------------------------------------------------ JSON out --

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON array of already-rendered JSON values.
std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i == 0 ? "" : ",") + items[i];
  return out + "]";
}

/// Ordered key -> JSON-literal pairs rendered as one object.
struct Object {
  std::vector<std::pair<std::string, std::string>> fields;
  Object& raw(const std::string& k, const std::string& v) {
    fields.emplace_back(k, v);
    return *this;
  }
  Object& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Object& val(const std::string& k, double v) { return raw(k, num(v)); }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i)
      out += (i == 0 ? "" : ",") + quote(fields[i].first) + ":" +
             fields[i].second;
    return out + "}";
  }
};

// ----------------------------------------------------------- workloads --

/// One closed-batch execution of the workload: set-up, then the timed
/// phase, then the pinned outputs and any broken invariant.
struct Iteration {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
  std::string error;
  Object outputs;
  std::vector<std::string> violations;
};

SimView scale_32k(std::uint64_t seed) {
  SimView v;
  v.system = mcs::topo::SystemConfig::homogeneous(8, 3, 256);  // N=32768
  v.lambda = 2e-5;
  v.config.seed = seed;
  v.config.warmup_messages = 30'000;
  v.config.measured_messages = 300'000;
  return v;
}

SimView small_hetero(std::uint64_t seed) {
  // m=4, heights {2,2,3,3} (N=48), per-cluster technologies, skewed load.
  SimView v;
  v.system.m = 4;
  v.system.cluster_heights = {2, 2, 3, 3};
  v.system.cluster_net.assign(4, {});
  v.system.cluster_net[0].beta_net = 0.001;
  v.system.cluster_net[1].beta_net = 0.001;
  v.system.cluster_net[2].beta_net = 0.004;
  v.system.cluster_net[2].alpha_sw = 0.02;
  v.system.cluster_net[3].beta_net = 0.004;
  v.system.cluster_net[3].alpha_sw = 0.02;
  v.system.icn2_net.alpha_net = 0.04;
  v.system.icn2_net.beta_net = 0.001;
  v.system.load_scale = {2.0, 2.0, 0.75, 0.75};
  v.lambda = 3e-4;
  v.config.seed = seed;
  v.config.warmup_messages = 100'000;
  v.config.measured_messages = 1'000'000;
  return v;
}

/// Largest relative distance between a steady simulated mean latency and
/// the refined model's prediction that still counts as agreement.
constexpr double kModelTolerance = 0.15;

double rel_err(double sim, double model) {
  return std::fabs(sim - model) / model;
}

/// The set-up of a single run: topology and simulator, with the time
/// each constructor took.
struct SingleSetup {
  std::unique_ptr<mcs::topo::MultiClusterTopology> topology;
  std::unique_ptr<mcs::sim::Simulator> simulator;
  double topology_s = 0.0;
  double simulator_s = 0.0;
};

SingleSetup setup_single(const SimView& view) {
  SingleSetup s;
  const double t0 = now_s();
  s.topology = std::make_unique<mcs::topo::MultiClusterTopology>(view.system);
  const double t1 = now_s();
  s.simulator = std::make_unique<mcs::sim::Simulator>(
      *s.topology, view.params, view.lambda, view.config);
  s.topology_s = t1 - t0;
  s.simulator_s = now_s() - t1;
  return s;
}

/// One single run. Its result is kept in `view` when `keep` is set; a
/// positive `model_latency` adds the model-agreement check.
Iteration run_single(SimView& view, double model_latency, bool keep) {
  Iteration it;
  SingleSetup setup = setup_single(view);
  const double t0 = now_s();
  const double c0 = cpu_s();
  const mcs::sim::SimResult r = setup.simulator->run();
  it.wall_s = now_s() - t0;
  it.cpu_s = cpu_s() - c0;
  it.setup_s = setup.topology_s + setup.simulator_s;
  setup = {};

  if (keep) view.result = r;
  it.outputs.str("latency_mean", hex(r.latency.mean))
      .str("latency_p99", hex(r.latency_p99))
      .val("events", static_cast<double>(r.events_processed))
      .val("worms", static_cast<double>(r.worms_spawned))
      .val("generated", static_cast<double>(r.generated))
      .val("saturated", r.saturated ? 1 : 0);
  if (r.saturated) it.violations.push_back("saturated: " + r.saturation_reason);
  if (r.delivered_measured != view.config.measured_messages)
    it.violations.push_back("measured messages not all delivered");
  if (!(r.latency.mean > 0.0) || !(r.latency_p99 >= r.latency.mean))
    it.violations.push_back("latency mean/p99 out of order");
  if (static_cast<std::int64_t>(r.worms_spawned) < r.generated ||
      r.events_processed < r.worms_spawned)
    it.violations.push_back("event/worm/message counts inconsistent");
  if (model_latency > 0.0 &&
      rel_err(r.latency.mean, model_latency) > kModelTolerance)
    it.violations.push_back("mean latency " + num(r.latency.mean) +
                            " disagrees with the refined model's " +
                            num(model_latency));
  return it;
}

const std::vector<std::string> kPaperScenarios = {
    "table1", "fig3_m32", "fig3_m64", "fig4_m32", "fig4_m64"};

/// The set-up of the paper reproduction: every scenario loaded (with the
/// workload seed) into a SweepRunner, and the shared pool started.
struct PaperSetup {
  std::vector<std::unique_ptr<mcs::exp::SweepRunner>> runners;
  std::unique_ptr<mcs::exp::ThreadPool> pool;
};

PaperSetup setup_paper(const Options& o, Spans* spans) {
  Scope scope(spans, "paper_repro.setup");
  PaperSetup s;
  for (const std::string& name : kPaperScenarios) {
    Scope load(spans, "exp.scenario.load");
    mcs::exp::ScenarioSpec spec = mcs::exp::load_scenario(
        (fs::path(o.scenario_dir) / (name + ".ini")).string());
    spec.seed = o.seed;
    s.runners.push_back(std::make_unique<mcs::exp::SweepRunner>(spec));
  }
  Scope start(spans, "exp.thread_pool.start");
  s.pool = std::make_unique<mcs::exp::ThreadPool>(o.threads);
  return s;
}

/// One cold pass of the paper reproduction: every scenario through
/// SweepRunner::run on one shared pool, with a fresh result cache and
/// one fresh checkpoint journal per scenario.
Iteration run_paper(const Options& o, SweepView& view, Spans* spans) {
  Iteration it;
  const fs::path dir = fs::path(o.work_dir) / "pass";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const double t0 = now_s();
  PaperSetup setup = setup_paper(o, spans);
  const double t1 = now_s();
  const double c0 = cpu_s();
  std::vector<mcs::exp::SweepResult> results;
  {
    Scope s(spans, "paper_repro.sweeps");
    for (const auto& runner : setup.runners) {
      Scope run(spans, "exp.sweep.run");
      mcs::exp::SweepRunOptions options;
      options.pool = setup.pool.get();
      options.cache_dir = (dir / "cache").string();
      options.checkpoint_path =
          (dir / (runner->spec().name + ".journal")).string();
      results.push_back(runner->run(options));
    }
  }
  it.wall_s = now_s() - t1;
  it.cpu_s = cpu_s() - c0;
  it.setup_s = t1 - t0;
  setup.pool.reset();

  // Outputs: a digest of every row's stable (timing-free) JSON form.
  mcs::util::Sha256 digest;
  std::int64_t rows = 0, sim_rows = 0, saturated = 0, cached = 0;
  for (const mcs::exp::SweepResult& res : results) {
    std::ostringstream json;
    mcs::exp::write_json(res, json, /*stable=*/true);
    digest.update(json.str());
    rows += static_cast<std::int64_t>(res.rows.size());
    sim_rows += res.sim_tasks;
    saturated += res.saturated_points;
    cached += res.cached_rows;
    for (const mcs::exp::SweepRow& row : res.rows) {
      if (!row.sim_run) continue;
      const std::string label = mcs::exp::row_label(row);
      if (row.sim_state == 0 && !(row.sim_latency > 0.0))
        it.violations.push_back(label + ": steady row without a latency");
      // The lowest load of every group sits far below the knee: the
      // simulator must be steady there and agree with the refined model.
      if (row.load_idx == 0 &&
          (row.sim_state != 0 ||
           rel_err(row.sim_latency, row.refined_latency) > kModelTolerance))
        it.violations.push_back(label + ": lowest load disagrees with the "
                                        "refined model");
    }
  }
  if (rows != 128 || sim_rows != 96 || cached != 0)
    it.violations.push_back("expected 128 fresh rows with 96 sim tasks");
  it.outputs.str("rows_digest", digest.hex_digest())
      .val("rows", static_cast<double>(rows))
      .val("saturated_rows", static_cast<double>(saturated));

  view.cache_dir = (dir / "cache").string();
  view.journals.clear();
  view.specs.clear();
  for (const auto& runner : setup.runners) {
    view.specs.push_back(runner->spec());
    view.journals.push_back(
        (dir / (runner->spec().name + ".journal")).string());
  }
  view.passes.push_back(std::move(results));
  return it;
}

/// The exp-layer view of a single-run workload: the same configuration
/// as one sweep row with four replications and a tenth of the phases,
/// run cold through SweepRunner with a cache and a journal.
void single_sweep_view(const Options& o, const SimView& sim, SweepView& view,
                       Spans* spans) {
  mcs::exp::ScenarioSpec spec;
  spec.name = o.workload;
  spec.systems = {{o.workload, sim.system}};
  spec.message_flits = {sim.params.message_flits};
  spec.flit_bytes = {sim.params.flit_bytes};
  spec.base_params = sim.params;
  spec.loads = {sim.lambda};
  spec.seed = o.seed;
  spec.replications = 4;
  spec.warmup = sim.config.warmup_messages / 10;
  spec.measured = sim.config.measured_messages / 10;
  spec.validate();
  const mcs::exp::SweepRunner runner(spec);
  mcs::exp::ThreadPool pool(o.threads);
  for (int pass = 0; pass < 2; ++pass) {
    Scope s(spans, "exp.sweep.run");
    const fs::path dir = fs::path(o.work_dir) / "pass";
    fs::remove_all(dir);
    fs::create_directories(dir);
    mcs::exp::SweepRunOptions options;
    options.pool = &pool;
    options.cache_dir = (dir / "cache").string();
    options.checkpoint_path = (dir / "single.journal").string();
    view.passes.push_back({runner.run(options)});
    view.cache_dir = options.cache_dir;
    view.journals = {options.checkpoint_path};
  }
  view.specs = {runner.spec()};
}

/// The paper reproduction's representative simulation for the sim-layer
/// probes: the highest-load row of fig3_m32 (org_a, N=1120, M=32,
/// L_m=256), seeded exactly as the sweep seeds it.
SimView paper_sim_view(const SweepView& view) {
  const mcs::exp::ScenarioSpec& spec = view.specs[1];
  SimView v;
  v.system = spec.systems.front().config;
  v.params = spec.base_params;
  v.params.message_flits = spec.message_flits.front();
  v.params.flit_bytes = spec.flit_bytes.front();
  v.lambda = spec.loads.back();
  v.config.seed = mcs::util::derive_seed(
      spec.seed, {0, 0, 0, 0, 0, 0, spec.loads.size() - 1, 0});
  v.config.relay_mode = spec.relay_modes.front();
  v.config.flow_control = spec.flow_controls.front();
  v.config.warmup_messages = spec.warmup;
  v.config.measured_messages = spec.measured;
  return v;
}

// ---------------------------------------------------------------- main --

std::string render_iteration(const Iteration& it) {
  std::vector<std::string> violations;
  for (const std::string& v : it.violations) violations.push_back(quote(v));
  Object o;
  o.val("setup_s", it.setup_s)
      .val("wall_s", it.wall_s)
      .val("cpu_s", it.cpu_s)
      .val("traced", it.traced ? 1 : 0)
      .str("error", it.error)
      .raw("outputs", it.outputs.render())
      .raw("violations", array(violations));
  return o.render();
}

/// Runs `body` as one iteration; an exception becomes a failed iteration.
template <class Body>
Iteration guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    Iteration it;
    it.error = e.what();
    return it;
  }
}

int run(const Options& o) {
  mcs::obs::RunManifest manifest = mcs::obs::RunManifest::begin();
  fs::create_directories(o.work_dir);
  const bool paper = o.workload == "paper_repro";
  SimView sim;
  if (o.workload == "scale_32k") sim = scale_32k(o.seed);
  else if (o.workload == "small_hetero") sim = small_hetero(o.seed);
  else if (!paper) throw std::runtime_error("unknown workload " + o.workload);

  double model_latency = 0.0;
  if (!paper)
    model_latency =
        mcs::model::RefinedModel(sim.system, sim.params, {},
                                 sim.config.flow_control)
            .predict(sim.lambda)
            .mean_latency;

  // Untraced timed iterations: at least three, then as many as the budget
  // holds (a trace run spends half its budget here).
  const double budget = o.trace ? 0.5 * o.seconds : o.seconds;
  const int min_iterations = o.trace && paper ? 1 : 3;
  std::vector<Iteration> iterations;
  SweepView sweep;
  const double start = now_s();
  for (;;) {
    const double t0 = now_s();
    iterations.push_back(guarded([&] {
      return paper ? run_paper(o, sweep, nullptr)
                   : run_single(sim, model_latency, iterations.empty());
    }));
    const double elapsed = now_s() - start;
    if (static_cast<int>(iterations.size()) >= min_iterations &&
        elapsed + (now_s() - t0) > budget)
      break;
  }
  std::vector<double> walls;
  for (const Iteration& it : iterations)
    if (it.error.empty()) walls.push_back(it.wall_s);
  const double untraced_wall = median(walls);

  // Set-up is short next to a run: repeat it alone until there are at
  // least nine samples covering a quarter second, so its median is steady.
  std::vector<double> setups, topology_s, simulator_s;
  for (const Iteration& it : iterations) setups.push_back(it.setup_s);
  const double setup_start = now_s();
  while (setups.size() < 9 ||
         (now_s() - setup_start < 0.25 && setups.size() < 1000)) {
    if (paper) {
      const double t0 = now_s();
      const PaperSetup setup = setup_paper(o, nullptr);
      setups.push_back(now_s() - t0);
    } else {
      const SingleSetup setup = setup_single(sim);
      setups.push_back(setup.topology_s + setup.simulator_s);
      topology_s.push_back(setup.topology_s);
      simulator_s.push_back(setup.simulator_s);
    }
  }

  Object layers;
  if (o.trace) {
    Spans spans;
    Metrics metrics;
    const bool ok = iterations.front().error.empty();
    if (!ok) throw std::runtime_error(iterations.front().error);
    double traced_wall = 0.0;
    if (paper) {
      Iteration traced = guarded([&] { return run_paper(o, sweep, &spans); });
      traced.traced = true;
      traced_wall = traced.wall_s;
      iterations.push_back(std::move(traced));
      // Single-run layers replay the representative row.
      sim = paper_sim_view(sweep);
      std::vector<double> row_walls;
      for (int rep = 0; rep < 3; ++rep) {
        Scope s(&spans, "sim.row_run");
        row_walls.push_back(run_single(sim, 0.0, rep == 0).wall_s);
        const SingleSetup setup = setup_single(sim);
        topology_s.push_back(setup.topology_s);
        simulator_s.push_back(setup.simulator_s);
      }
      sim.run_wall_s = median(row_walls);
      probe_run(sim, &spans);
    } else {
      sim.run_wall_s = untraced_wall;
      traced_wall = probe_run(sim, &spans);
      single_sweep_view(o, sim, sweep, &spans);
    }
    sim.topology_build_s = median(topology_s);
    sim.simulator_setup_s = median(simulator_s);
    sim_layers(sim, o.seed, metrics, &spans);
    model_layers(sweep.specs, metrics, &spans);
    exp_layers(sweep, o.work_dir, metrics, &spans);
    metrics["trace.traced_wall_s"] = traced_wall;
    metrics["trace.untraced_wall_s"] = untraced_wall;
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall;
    for (const auto& [name, value] : metrics) layers.val(name, value);
    spans.write((fs::path(o.work_dir) / "spans.json").string());
  }

  manifest.complete();
  std::vector<std::string> its, setup_list;
  for (const Iteration& it : iterations) its.push_back(render_iteration(it));
  for (const double s : setups) setup_list.push_back(num(s));
  Object out;
  out.str("workload", o.workload)
      .raw("seed", std::to_string(o.seed))
      .val("threads", o.threads)
      .str("build_type", manifest.build_type)
      .raw("iterations", array(its))
      .raw("setup_s", array(setup_list))
      .val("peak_rss_mb", static_cast<double>(manifest.peak_rss_kb) / 1024.0)
      .raw("layers", layers.render());
  std::printf("%s\n", out.render().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcs_bench: %s\n", e.what());
    return 1;
  }
}
