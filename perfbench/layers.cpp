// Per-layer probes of the benchmark. Each probe calls one layer's public
// functions from outside, with the workload's own configuration, and
// reports time per call or an exact count. Nothing here runs during a
// timed (untraced) pass.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "exp/checkpoint.hpp"
#include "exp/result_cache.hpp"
#include "model/paper_model.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "obs/probe.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/layout.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mcs::sim::GlobalChannelId;

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string hex(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

int Spans::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_s();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  (s.start - origin) * 1e6, (s.end - s.start) * 1e6);
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

namespace {

/// Median time per operation of `pass` (which performs `ops` operations),
/// over at least `min_passes` passes and `min_s` seconds.
template <class Pass>
double per_op(Pass&& pass, double ops, double min_s = 0.15,
              int min_passes = 5) {
  std::vector<double> samples;
  const double start = now_s();
  while (static_cast<int>(samples.size()) < min_passes ||
         now_s() - start < min_s) {
    const double t0 = now_s();
    pass();
    samples.push_back((now_s() - t0) / ops);
  }
  return median(samples);
}

/// Keeps results of timed loops observable so they are not optimized out.
volatile std::uint64_t g_sink = 0;

/// A message of the workload's traffic, as the route memo sees it.
std::vector<mcs::sim::MsgRec> sample_messages(
    const mcs::topo::MultiClusterTopology& topology,
    const mcs::sim::TrafficPattern& pattern, std::int64_t count,
    std::uint64_t seed, std::vector<std::int64_t>* sources = nullptr) {
  const mcs::topo::SystemConfig& cfg = topology.config();
  // Sources in proportion to their Poisson rates (cluster load scale).
  std::vector<double> weight;
  for (int c = 0; c < cfg.cluster_count(); ++c)
    weight.push_back(cfg.cluster_load_scale(c) *
                     static_cast<double>(cfg.cluster_size(c)));
  const mcs::util::AliasTable clusters(weight);
  const mcs::sim::DestinationSampler sampler(topology, pattern);
  mcs::util::Rng rng(mcs::util::derive_seed(seed, {0x70617468}));

  std::vector<mcs::sim::MsgRec> msgs(static_cast<std::size_t>(count));
  for (mcs::sim::MsgRec& m : msgs) {
    const int sc = static_cast<int>(clusters.sample(rng));
    const auto sl = static_cast<mcs::topo::EndpointId>(
        rng.next_below(static_cast<std::uint64_t>(cfg.cluster_size(sc))));
    const std::int64_t src = topology.global_id(sc, sl);
    if (sources != nullptr) sources->push_back(src);
    const auto [dc, dl] = topology.locate(sampler.sample(src, sc, rng));
    m.src_cluster = sc;
    m.src_local = sl;
    m.dst_cluster = dc;
    m.dst_local = dl;
    m.internal = dc == sc;
  }
  return msgs;
}

/// Look up every route leg of `m` the simulator would; returns lookups.
template <class Visit>
int route_legs(mcs::sim::RouteTables& routes, const mcs::sim::MsgRec& m,
               mcs::sim::RelayMode relay, Visit&& visit) {
  if (m.internal) {
    visit(routes.icn1(m));
    return 1;
  }
  if (relay == mcs::sim::RelayMode::kCutThrough) {
    visit(routes.cut_through(m));
  } else {
    visit(routes.ecn1_out(m));
    visit(routes.icn2(m));
    visit(routes.ecn1_in(m));
  }
  return 3;
}

/// The messages that touch a memo slot for the first time, in stream
/// order, and the number of such slots (= memo misses of a cold pass).
std::pair<std::vector<mcs::sim::MsgRec>, std::int64_t> first_touches(
    const std::vector<mcs::sim::MsgRec>& msgs) {
  std::set<std::tuple<int, int, int, int>> keys;
  std::vector<mcs::sim::MsgRec> first;
  for (const mcs::sim::MsgRec& m : msgs) {
    const std::size_t before = keys.size();
    if (m.internal) {
      keys.insert({0, m.src_cluster, m.src_local, m.dst_local});
    } else {
      keys.insert({1, m.src_cluster, m.src_local, 0});
      keys.insert({2, m.src_cluster, m.dst_cluster, 0});
      keys.insert({3, m.dst_cluster, m.dst_local, 0});
    }
    if (keys.size() > before) first.push_back(m);
  }
  return {first, static_cast<std::int64_t>(keys.size())};
}

struct DoneCounter final : mcs::sim::WormholeEngine::Listener {
  std::int64_t done = 0;
  void on_worm_done(mcs::sim::WormId, double) override { ++done; }
};

/// Dispatch every pending engine event; returns the last event time.
double drain(mcs::sim::EventQueue& queue, mcs::sim::WormholeEngine& engine,
             double now) {
  while (!queue.empty()) {
    const mcs::sim::Event ev = queue.pop();
    now = ev.time;
    engine.handle(ev);
  }
  return now;
}

}  // namespace

double probe_run(SimView& view, Spans* spans) {
  Scope scope(spans, "sim.probed_run");
  const mcs::topo::MultiClusterTopology topology(view.system);
  mcs::obs::ProbeConfig probe_cfg;
  probe_cfg.interval = view.result.end_time / 256.0;
  probe_cfg.max_samples = 1024;
  mcs::obs::ProbeSeries probes(probe_cfg);
  mcs::sim::SimConfig cfg = view.config;
  cfg.probes = &probes;
  mcs::sim::Simulator simulator(topology, view.params, view.lambda, cfg);
  const double t0 = now_s();
  const mcs::sim::SimResult r = simulator.run();
  const double wall = now_s() - t0;
  // Observers are invisible to results (the simulator's contract).
  if (r.events_processed != view.result.events_processed ||
      r.latency.mean != view.result.latency.mean)
    throw std::runtime_error("probed run diverged from the untraced run");

  const std::int64_t nodes = topology.total_nodes();
  double worm_sum = 0.0;
  for (const mcs::obs::ProbeSample& s : probes.samples()) {
    view.depth_max = std::max(view.depth_max, s.queue_depth);
    view.waiting_max = std::max(view.waiting_max, s.waiting_worms);
    worm_sum += static_cast<double>(s.queue_depth - nodes);
  }
  view.worm_lane_depth =
      worm_sum / static_cast<double>(std::max<std::size_t>(
                     1, probes.samples().size()));
  return wall;
}

void sim_layers(const SimView& view, std::uint64_t seed, Metrics& out,
                Spans* spans) {
  Scope layer(spans, "layers.sim");
  const mcs::sim::SimResult& r = view.result;
  out["topology.build_s"] = view.topology_build_s;
  out["sim.simulator.setup_s"] = view.simulator_setup_s;
  out["sim.simulator.events"] = static_cast<double>(r.events_processed);
  out["sim.simulator.worms"] = static_cast<double>(r.worms_spawned);
  out["sim.simulator.generated"] = static_cast<double>(r.generated);
  out["sim.simulator.ns_per_event"] =
      view.run_wall_s * 1e9 / static_cast<double>(r.events_processed);
  out["sim.event_queue.depth_max"] = static_cast<double>(view.depth_max);
  out["sim.engine.waiting_max"] = static_cast<double>(view.waiting_max);

  const mcs::topo::MultiClusterTopology topology(view.system);
  const mcs::sim::SimLayout layout =
      mcs::sim::build_layout(topology, view.params, view.config.relay_mode,
                             view.config.flow_control);
  const std::int64_t nodes = topology.total_nodes();
  const std::int64_t stream = std::min<std::int64_t>(
      view.config.warmup_messages + view.config.measured_messages, 400'000);
  std::vector<std::int64_t> sources;
  const std::vector<mcs::sim::MsgRec> msgs = sample_messages(
      topology, view.config.pattern, stream, seed, &sources);

  // --- route memo --------------------------------------------------------
  // Lookups over the whole stream on a warm memo; fills from the messages
  // that touch a slot first, cold minus warm; bytes held after a cold pass
  // over the whole stream.
  {
    Scope s(spans, "sim.layout.routes");
    const auto [first, misses] = first_touches(msgs);
    const mcs::sim::RelayMode relay = view.config.relay_mode;
    std::uint64_t sink = 0;
    const auto pass = [&](mcs::sim::RouteTables& routes,
                          const std::vector<mcs::sim::MsgRec>& batch) {
      std::int64_t lookups = 0;
      for (const mcs::sim::MsgRec& m : batch)
        lookups += route_legs(routes, m, relay,
                              [&sink](std::span<const GlobalChannelId> p) {
                                sink += p.size() + static_cast<std::uint64_t>(
                                                       p.front());
                              });
      return lookups;
    };

    std::int64_t memo_bytes = 0;
    std::int64_t lookups = 0;
    {
      mcs::sim::RouteTables routes;
      {
        const CountBytes count;
        routes.init(topology, layout);
        lookups = pass(routes, msgs);
        memo_bytes = count.total();
      }
      out["sim.layout.route_lookup_ns"] =
          per_op([&] { pass(routes, msgs); }, static_cast<double>(lookups),
                 0.3, 3) *
          1e9;
    }

    std::vector<double> fill;
    for (int rep = 0; rep < 5; ++rep) {
      mcs::sim::RouteTables fresh;
      fresh.init(topology, layout);
      double t0 = now_s();
      const std::int64_t first_lookups = pass(fresh, first);
      const double cold = now_s() - t0;
      t0 = now_s();
      pass(fresh, first);
      const double warm = now_s() - t0;
      fill.push_back((cold - warm) / static_cast<double>(misses) +
                     warm / static_cast<double>(first_lookups));
    }
    g_sink = sink;
    out["sim.layout.route_fill_ns"] = median(fill) * 1e9;
    out["sim.layout.route_hit_frac"] =
        static_cast<double>(lookups - misses) / static_cast<double>(lookups);
    out["sim.layout.route_memo_bytes"] = static_cast<double>(memo_bytes);
  }

  // --- destination sampling, exponential draws, batch means ------------
  {
    Scope s(spans, "sim.traffic.sample");
    const mcs::sim::DestinationSampler sampler(topology, view.config.pattern);
    mcs::util::Rng rng(seed);
    std::uint64_t sink = 0;
    out["sim.traffic.sample_ns"] =
        per_op(
            [&] {
              for (std::size_t i = 0; i < msgs.size(); ++i)
                sink += static_cast<std::uint64_t>(sampler.sample(
                    sources[i], msgs[i].src_cluster, rng));
            },
            static_cast<double>(msgs.size())) *
        1e9;
    g_sink = sink;
  }
  {
    Scope s(spans, "util.rng.exponential");
    mcs::util::Rng rng(seed);
    double sink = 0.0;
    constexpr int kDraws = 1 << 20;
    out["util.rng.exponential_ns"] =
        per_op(
            [&] {
              for (int i = 0; i < kDraws; ++i)
                sink += rng.exponential(view.lambda);
            },
            kDraws) *
        1e9;
    g_sink = static_cast<std::uint64_t>(sink);
  }
  {
    Scope s(spans, "util.stats.batch_add");
    mcs::util::Rng rng(seed);
    std::vector<double> latencies(1 << 20);
    for (double& x : latencies) x = rng.exponential(1.0 / r.latency.mean);
    double sink = 0.0;
    out["util.stats.batch_add_ns"] =
        per_op(
            [&] {
              mcs::util::BatchMeans means(view.config.batch_size);
              for (const double x : latencies) means.add(x);
              sink += means.mean();
            },
            static_cast<double>(latencies.size())) *
        1e9;
    g_sink = static_cast<std::uint64_t>(sink);
  }

  // --- pending-event set at the workload's shape ------------------------
  // An N-entry generate lane plus the worm lane at its measured mean
  // depth. A hold pops the earliest event and pushes its successor into
  // the same lane, so both depths stay fixed; the worm-lane increments are
  // scaled so the share of generate pops matches generated / events.
  {
    Scope s(spans, "sim.event_queue.hold");
    const auto worm_depth = static_cast<std::int64_t>(
        std::max(1.0, std::round(view.worm_lane_depth)));
    const double mean_rate = static_cast<double>(r.generated) / r.end_time /
                             static_cast<double>(nodes);
    const double worm_events_per_gen =
        std::max(1.0, static_cast<double>(r.events_processed) /
                              static_cast<double>(r.generated) -
                          1.0);
    const double worm_mean = static_cast<double>(worm_depth) /
                             (mean_rate * static_cast<double>(nodes) *
                              worm_events_per_gen);
    mcs::util::Rng rng(seed);
    constexpr std::size_t kInc = 1 << 16;
    std::vector<double> gen_inc(kInc);
    std::vector<double> worm_inc(kInc);
    for (double& x : gen_inc) x = rng.exponential(mean_rate);
    for (double& x : worm_inc) x = rng.exponential(1.0 / worm_mean);

    mcs::sim::EventQueue queue;
    queue.enable_generate_lane(static_cast<std::size_t>(nodes));
    queue.reserve(static_cast<std::size_t>(worm_depth) + 16);
    for (std::int64_t g = 0; g < nodes; ++g)
      queue.push(rng.exponential(mean_rate), mcs::sim::EventKind::kGenerate,
                 static_cast<std::int32_t>(g));
    for (std::int64_t w = 0; w < worm_depth; ++w)
      queue.push(rng.exponential(1.0 / worm_mean),
                 mcs::sim::EventKind::kHeaderAdvance,
                 static_cast<std::int32_t>(w));
    constexpr std::int64_t kHolds = 1 << 20;
    std::size_t i = 0;
    const auto hold_pass = [&] {
      for (std::int64_t h = 0; h < kHolds; ++h, ++i) {
        const mcs::sim::Event ev = queue.pop();
        const double inc = ev.kind == mcs::sim::EventKind::kGenerate
                               ? gen_inc[i & (kInc - 1)]
                               : worm_inc[i & (kInc - 1)];
        queue.push(ev.time + inc, ev.kind, ev.a);
      }
    };
    hold_pass();  // settle the lanes into their steady interleaving
    out["sim.event_queue.hold_ns"] = per_op(hold_pass, kHolds) * 1e9;
  }

  // --- wormhole engine: uncontended and blocked worms -------------------
  {
    Scope s(spans, "sim.engine.worms");
    mcs::sim::RouteTables routes;
    routes.init(topology, layout);
    std::vector<std::vector<GlobalChannelId>> paths;
    for (std::size_t m = 0; m < msgs.size() && paths.size() < 4096; ++m)
      route_legs(routes, msgs[m], view.config.relay_mode,
                 [&paths](std::span<const GlobalChannelId> p) {
                   paths.emplace_back(p.begin(), p.end());
                 });

    mcs::sim::EventQueue queue;
    DoneCounter done;
    mcs::sim::WormholeEngine engine(layout.service, view.params.message_flits,
                                    queue, done, view.config.flow_control);
    engine.reserve_worms(256, layout.max_path_len);
    double now = 0.0;
    out["sim.engine.worm_ns"] =
        per_op(
            [&] {
              for (const std::vector<GlobalChannelId>& p : paths) {
                engine.spawn(0, p, now);
                now = drain(queue, engine, now);
              }
            },
            static_cast<double>(paths.size())) *
        1e9;

    // The longest sampled path with as many worms queued at its source
    // channel as the workload's peak count of blocked worms.
    const std::vector<GlobalChannelId>& longest = *std::max_element(
        paths.begin(), paths.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    const std::int64_t depth = std::max<std::int64_t>(2, view.waiting_max);
    engine.reserve_worms(static_cast<int>(depth), layout.max_path_len);
    out["sim.engine.blocked_worm_ns"] =
        per_op(
            [&] {
              for (std::int64_t w = 0; w < depth; ++w)
                engine.spawn(0, longest, now);
              now = drain(queue, engine, now);
            },
            static_cast<double>(depth), 0.3, 3) *
        1e9;
    g_sink = static_cast<std::uint64_t>(done.done);
  }
}

namespace {

/// The paper-literal model assumes one shared technology and load; for a
/// heterogeneous system it is timed on the same topology without the
/// per-cluster overrides.
std::unique_ptr<mcs::model::PaperModel> paper_model(
    mcs::topo::SystemConfig config, const mcs::model::NetworkParams& params) {
  if (config.heterogeneous_params() || config.heterogeneous_load()) {
    config.cluster_net.clear();
    config.icn2_net = {};
    config.load_scale.clear();
  }
  return std::make_unique<mcs::model::PaperModel>(config, params);
}

}  // namespace

void model_layers(const std::vector<mcs::exp::ScenarioSpec>& specs,
                  Metrics& out, Spans* spans) {
  Scope layer(spans, "layers.model");
  struct Group {
    std::unique_ptr<mcs::model::PaperModel> paper;
    std::unique_ptr<mcs::model::RefinedModel> refined;
    std::vector<double> loads;
  };
  std::vector<Group> groups;
  for (const mcs::exp::ScenarioSpec& spec : specs)
    for (const mcs::exp::SystemEntry& system : spec.systems)
      for (const int flits : spec.message_flits)
        for (const double bytes : spec.flit_bytes) {
          mcs::model::NetworkParams params = spec.base_params;
          params.message_flits = flits;
          params.flit_bytes = bytes;
          Group g;
          g.paper = paper_model(system.config, params);
          g.refined = std::make_unique<mcs::model::RefinedModel>(
              system.config, params, std::vector<double>{},
              spec.flow_controls.front());
          g.loads = spec.loads;
          groups.push_back(std::move(g));
        }
  double points = 0.0;
  for (const Group& g : groups) points += static_cast<double>(g.loads.size());

  double sink = 0.0;
  out["model.paper.predict_us"] =
      per_op(
          [&] {
            for (const Group& g : groups)
              for (const double load : g.loads)
                sink += g.paper->predict(load).mean_latency;
          },
          points) *
      1e6;
  out["model.refined.predict_us"] =
      per_op(
          [&] {
            for (const Group& g : groups)
              for (const double load : g.loads)
                sink += g.refined->predict(load).mean_latency;
          },
          points) *
      1e6;
  out["model.knee_ms"] =
      per_op(
          [&] {
            for (const Group& g : groups)
              sink += mcs::model::find_saturation(*g.refined).lambda_sat;
          },
          static_cast<double>(groups.size()), 0.15, 3) *
      1e3;
  g_sink = static_cast<std::uint64_t>(sink);
}

namespace {

std::uintmax_t tree_bytes(const fs::path& root) {
  std::uintmax_t total = 0;
  if (!fs::exists(root)) return 0;
  if (fs::is_regular_file(root)) return fs::file_size(root);
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

struct PassTasks {
  double busy_frac = 0.0;
  double tail_s = 0.0;
  double task_p50 = 0.0;
  double task_max = 0.0;
  double saturated_frac = 0.0;
};

PassTasks pass_tasks(const std::vector<mcs::exp::SweepResult>& results,
                     const std::vector<mcs::exp::ScenarioSpec>& specs) {
  PassTasks p;
  double exec = 0.0;
  double wall = 0.0;
  int threads = 1;
  std::vector<double> sim_exec;
  double saturated = 0.0;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const mcs::exp::SweepResult& res = results[k];
    threads = std::max(threads, res.threads);
    wall += res.wall_seconds;
    // A worker's last finish, relative to the sweep's submissions.
    std::vector<double> last(static_cast<std::size_t>(res.threads), 0.0);
    std::size_t sim_index = 0;
    const auto reps =
        static_cast<std::size_t>(std::max(1, specs[k].replications));
    for (const mcs::exp::TaskStat& t : res.task_stats) {
      exec += t.exec;
      if (t.thread >= 0 && t.thread < res.threads)
        last[static_cast<std::size_t>(t.thread)] =
            std::max(last[static_cast<std::size_t>(t.thread)],
                     t.queue_wait + t.exec);
      if (t.kind != 's') continue;
      sim_exec.push_back(t.exec);
      // Simulation tasks are submitted in row order, `reps` per row.
      const std::size_t row = sim_index++ / reps;
      if (row < res.rows.size() && res.rows[row].sim_state != 0)
        saturated += t.exec;
    }
    if (!res.task_stats.empty())
      p.tail_s += *std::max_element(last.begin(), last.end()) -
                  *std::min_element(last.begin(), last.end());
  }
  p.busy_frac = wall > 0.0 ? exec / (threads * wall) : 0.0;
  double sim_total = 0.0;
  for (const double e : sim_exec) sim_total += e;
  p.saturated_frac = sim_total > 0.0 ? saturated / sim_total : 0.0;
  p.task_p50 = median(sim_exec);
  p.task_max =
      sim_exec.empty() ? 0.0 : *std::max_element(sim_exec.begin(),
                                                 sim_exec.end());
  return p;
}

}  // namespace

void exp_layers(const SweepView& view, const std::string& tmp_dir,
                Metrics& out, Spans* spans) {
  Scope layer(spans, "layers.exp");
  {
    std::vector<double> busy, tail, p50, max, saturated;
    for (const auto& pass : view.passes) {
      const PassTasks p = pass_tasks(pass, view.specs);
      busy.push_back(p.busy_frac);
      tail.push_back(p.tail_s);
      p50.push_back(p.task_p50);
      max.push_back(p.task_max);
      saturated.push_back(p.saturated_frac);
    }
    out["exp.thread_pool.busy_frac"] = median(busy);
    out["exp.thread_pool.tail_s"] = median(tail);
    out["exp.sweep.sim_task_p50_s"] = median(p50);
    out["exp.sweep.sim_task_max_s"] = median(max);
    out["exp.sweep.saturated_task_frac"] = median(saturated);
  }

  // The rows of the first pass, keyed and encoded as the sweep does.
  struct Entry {
    const mcs::exp::ScenarioSpec* spec;
    const mcs::exp::SweepRow* row;
    std::string digest;
    std::string payload;
  };
  const std::string fingerprint = mcs::exp::binary_fingerprint();
  std::vector<Entry> entries;
  for (std::size_t k = 0; k < view.specs.size(); ++k)
    for (const mcs::exp::SweepRow& row : view.passes.front()[k].rows)
      entries.push_back({&view.specs[k], &row, {}, {}});
  const auto n = static_cast<double>(entries.size());

  Scope cache_scope(spans, "exp.result_cache");
  out["exp.result_cache.digest_us"] =
      per_op(
          [&] {
            for (Entry& e : entries)
              e.digest = mcs::exp::row_digest(*e.spec, *e.row, fingerprint);
          },
          n) *
      1e6;
  for (Entry& e : entries) e.payload = mcs::exp::encode_row_payload(*e.row);

  const mcs::exp::ResultCache sweep_cache(view.cache_dir);
  double hits = 0.0;
  for (const Entry& e : entries)
    if (sweep_cache.load(e.digest)) hits += 1.0;
  out["exp.result_cache.hit_frac"] = hits / n;
  out["exp.result_cache.bytes"] =
      static_cast<double>(tree_bytes(view.cache_dir));

  std::vector<double> store, load, add, finalize;
  for (int pass = 0; pass < 5; ++pass) {
    const fs::path dir = fs::path(tmp_dir) / ("cache" + std::to_string(pass));
    fs::remove_all(dir);
    const mcs::exp::ResultCache cache(dir.string());
    double t0 = now_s();
    for (const Entry& e : entries) cache.store(e.digest, e.payload);
    store.push_back((now_s() - t0) / n);
    t0 = now_s();
    std::size_t loaded = 0;
    for (const Entry& e : entries)
      loaded += cache.load(e.digest).value_or("").size();
    load.push_back((now_s() - t0) / n);
    g_sink = loaded;
    fs::remove_all(dir);

    const fs::path journal =
        fs::path(tmp_dir) / ("journal" + std::to_string(pass));
    fs::remove(journal);
    mcs::exp::CheckpointWriter writer(journal.string(), "perfbench", 0, 1);
    t0 = now_s();
    for (const Entry& e : entries)
      writer.add(e.row->grid_index, e.digest, e.payload);
    add.push_back((now_s() - t0) / n);
    t0 = now_s();
    writer.finalize();
    finalize.push_back(now_s() - t0);
    fs::remove(journal);
  }
  out["exp.result_cache.store_us"] = median(store) * 1e6;
  out["exp.result_cache.load_us"] = median(load) * 1e6;
  out["exp.checkpoint.add_us"] = median(add) * 1e6;
  out["exp.checkpoint.finalize_ms"] = median(finalize) * 1e3;
  double journal_bytes = 0.0;
  for (const std::string& j : view.journals)
    journal_bytes += static_cast<double>(tree_bytes(j));
  out["exp.checkpoint.bytes"] = journal_bytes;
}

}  // namespace perfbench
