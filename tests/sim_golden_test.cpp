// Golden regression tests: pin the exact fixed-seed output of the
// simulator for small configurations spanning both flow controls and both
// ICN2 families (fat tree, torus/mesh graph) plus the cut-through relay.
//
// These are the safety net for hot-path optimisation work: any engine or
// event-queue change must reproduce these strings BIT-IDENTICALLY, not
// just "statistically close". Doubles are rendered as C hexfloats (%a), so
// the comparison is exact and a failure message contains everything needed
// to inspect a divergence. If a change intentionally alters simulation
// semantics (event order, RNG consumption, metric definitions), regenerate
// the strings from the test failure output and say so in the PR.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/simulator.hpp"

namespace mcs::sim {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Serialize every pinned metric of one run. Field order is part of the
/// golden contract; append new fields at the end if the struct grows.
std::string fingerprint(const SimResult& r) {
  std::string s;
  s += "mean=" + hex(r.latency.mean);
  s += " p50=" + hex(r.latency_p50);
  s += " p95=" + hex(r.latency_p95);
  s += " p99=" + hex(r.latency_p99);
  s += " int=" + hex(r.internal_latency.mean);
  s += " ext=" + hex(r.external_latency.mean);
  s += " srcw=" + hex(r.mean_source_wait);
  s += " end=" + hex(r.end_time);
  s += " events=" + std::to_string(r.events_processed);
  s += " gen=" + std::to_string(r.generated);
  s += " nint=" + std::to_string(r.measured_internal);
  s += " next=" + std::to_string(r.measured_external);
  return s;
}

SimConfig golden_config() {
  SimConfig cfg;
  cfg.seed = 20060814;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.batch_size = 100;
  return cfg;
}

topo::SystemConfig tree_system() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3};
  return cfg;
}

topo::SystemConfig torus_system(bool wrap) {
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 6);
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  cfg.icn2.torus_wrap = wrap;
  return cfg;
}

std::string run(const topo::SystemConfig& system, SimConfig cfg) {
  topo::MultiClusterTopology topology(system);
  model::NetworkParams params;  // M = 32 flits, paper timing constants
  Simulator sim(topology, params, 2e-4, std::move(cfg));
  return fingerprint(sim.run());
}

TEST(SimGolden, WormholeFatTree) {
  EXPECT_EQ(run(tree_system(), golden_config()),
            "mean=0x1.0c86614b7fba3p+5 p50=0x1.284dd2f1a2p+5 "
            "p95=0x1.6da9fbe776p+5 p99=0x1.a984401af0c8fp+5 "
            "int=0x1.1a8ca7212bc6ep+4 ext=0x1.517f4110574acp+5 "
            "srcw=0x1.6106691841892p-6 end=0x1.41d917121a988p+18 "
            "events=44474 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, WormholeTorus) {
  EXPECT_EQ(run(torus_system(/*wrap=*/true), golden_config()),
            "mean=0x1.60c644faa8518p+5 p50=0x1.a67ef9db19p+5 "
            "p95=0x1.aaac08312p+5 p99=0x1.f7811de43c87p+5 "
            "int=0x1.0a9e689bc318ap+4 ext=0x1.8a6c045fd2c29p+5 "
            "srcw=0x1.f7aa0a37a4dcfp-7 end=0x1.b49bc7a1a3dep+17 "
            "events=49348 gen=2201 nint=319 next=1681");
}

TEST(SimGolden, StoreAndForwardFatTree) {
  SimConfig cfg = golden_config();
  cfg.flow_control = FlowControl::kStoreAndForward;
  EXPECT_EQ(run(tree_system(), std::move(cfg)),
            "mean=0x1.a71ae7ec384bap+6 p50=0x1.df3b645a1cp+6 "
            "p95=0x1.326e978d51p+7 p99=0x1.37316084ce2f6p+7 "
            "int=0x1.0ab046916a017p+6 ext=0x1.fbe2d07416725p+6 "
            "srcw=0x1.f0eed1c3fcee3p-8 end=0x1.41e5b10e02044p+18 "
            "events=25858 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, StoreAndForwardMesh) {
  SimConfig cfg = golden_config();
  cfg.flow_control = FlowControl::kStoreAndForward;
  EXPECT_EQ(run(torus_system(/*wrap=*/false), std::move(cfg)),
            "mean=0x1.da57caacf0ddp+6 p50=0x1.110624dd2ecp+7 "
            "p95=0x1.53d70a3d704p+7 p99=0x1.53d70a3d70ap+7 "
            "int=0x1.7639b7639b15ep+5 ext=0x1.086cce05861p+7 "
            "srcw=0x1.2d14c8c8e45ap-7 end=0x1.b4d2010b0f2edp+17 "
            "events=29233 gen=2201 nint=319 next=1681");
}

TEST(SimGolden, WormholeHeteroTechnology) {
  // PR 4 heterogeneous path: per-cluster channel timing (one fast, one
  // slow cluster) plus a distinct long-haul ICN2 technology. Pins the
  // per-net service-table resolution bit-exactly.
  topo::SystemConfig cfg = tree_system();
  cfg.cluster_net.assign(3, {});
  cfg.cluster_net[0].beta_net = 0.001;
  cfg.cluster_net[2].beta_net = 0.004;
  cfg.cluster_net[2].alpha_sw = 0.02;
  cfg.icn2_net.alpha_net = 0.04;
  cfg.icn2_net.beta_net = 0.001;
  EXPECT_EQ(run(cfg, golden_config()),
            "mean=0x1.4d2b828713f3cp+5 p50=0x1.2cd4fdf3b84p+5 "
            "p95=0x1.e76872b01ep+5 p99=0x1.31ae3e1f8b6b8p+6 "
            "int=0x1.cb15ee2d01fd2p+4 ext=0x1.8556834ce0efep+5 "
            "srcw=0x1.8cbfeca8424e5p-5 end=0x1.41d605eb311f9p+18 "
            "events=44474 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, WormholeHeteroLoadScale) {
  // PR 4 hot-spot path: per-cluster offered-load multipliers with a
  // node-weighted mean of 1.0 (matched total load; clusters are 8/8/16
  // nodes). Pins the per-cluster arrival-rate path bit-exactly.
  topo::SystemConfig cfg = tree_system();
  cfg.load_scale = {2.5, 0.5, 0.5};
  EXPECT_EQ(run(cfg, golden_config()),
            "mean=0x1.18a679b8906e9p+5 p50=0x1.284dd2f1c4p+5 "
            "p95=0x1.6da9fbe776p+5 p99=0x1.ac2bc518f3599p+5 "
            "int=0x1.14900995c48f7p+4 ext=0x1.4f9adbb91f0c3p+5 "
            "srcw=0x1.17f283224148p-6 end=0x1.464d187fb1ef5p+18 "
            "events=45468 gen=2200 nint=557 next=1443");
}

TEST(SimGolden, WormholeCutThroughRelay) {
  SimConfig cfg = golden_config();
  cfg.relay_mode = RelayMode::kCutThrough;
  EXPECT_EQ(run(tree_system(), std::move(cfg)),
            "mean=0x1.35ceb9f08c9e3p+4 p50=0x1.3ed0e5603ap+4 "
            "p95=0x1.4f851eb85p+4 p99=0x1.f5ba2d2d3979ap+4 "
            "int=0x1.1a8ca7212bc6ep+4 ext=0x1.4494fb66ad2d4p+4 "
            "srcw=0x1.ad83128d0106dp-6 end=0x1.41d4cfe7188b6p+18 "
            "events=41632 gen=2200 nint=703 next=1297");
}

/// The pending-event set's operation counts of one run. Pure functions
/// of the event stream, so they are pinned exactly like the results; a
/// change that moves them moved which source an event travels through.
std::string queue_fingerprint(const topo::SystemConfig& system,
                              SimConfig cfg) {
  topo::MultiClusterTopology topology(system);
  model::NetworkParams params;
  Simulator sim(topology, params, 2e-4, std::move(cfg));
  const SimResult r = sim.run();
  // Every popped event is processed, and nothing else is.
  EXPECT_EQ(r.queue.pops, r.events_processed);
  const EventQueueCounters& q = r.queue;
  return "generate=" + std::to_string(q.generate_pushes) +
         " direct=" + std::to_string(q.direct_pushes) +
         " lane=" + std::to_string(q.lane_pushes) +
         " run=" + std::to_string(q.run_pushes) +
         " pops=" + std::to_string(q.pops) +
         " peak=" + std::to_string(q.peak_size);
}

TEST(SimGolden, PendingSetCountersWormholeFatTree) {
  EXPECT_EQ(queue_fingerprint(tree_system(), golden_config()),
            "generate=2232 direct=0 lane=18616 run=23658 pops=44474 "
            "peak=56");
}

TEST(SimGolden, PendingSetCountersStoreAndForwardFatTree) {
  // Store-and-forward completes worms with a direct push.
  SimConfig cfg = golden_config();
  cfg.flow_control = FlowControl::kStoreAndForward;
  EXPECT_EQ(queue_fingerprint(tree_system(), std::move(cfg)),
            "generate=2232 direct=5042 lane=18616 run=0 pops=25858 "
            "peak=38");
}

/// The route memo's hits and misses per use site of one run: like the
/// queue counters, pure functions of the message stream.
std::string route_fingerprint(const topo::SystemConfig& system,
                              SimConfig cfg) {
  topo::MultiClusterTopology topology(system);
  model::NetworkParams params;
  Simulator sim(topology, params, 2e-4, std::move(cfg));
  const RouteMemoCounters r = sim.run().routes;
  const auto site = [](const char* name, const RouteMemoCount& c) {
    return std::string(name) + "=" + std::to_string(c.hits) + "/" +
           std::to_string(c.misses);
  };
  return site("icn1", r.icn1) + " " + site("ecn1_out", r.ecn1_out) + " " +
         site("icn2", r.icn2) + " " + site("ecn1_in", r.ecn1_in);
}

TEST(SimGolden, RouteMemoCountersWormholeFatTree) {
  EXPECT_EQ(route_fingerprint(tree_system(), golden_config()),
            "icn1=462/317 ecn1_out=1389/32 icn2=1415/6 ecn1_in=1389/32");
}

TEST(SimGolden, RouteMemoCountersCutThroughRelay) {
  // One merged worm per external message still looks up all three legs.
  SimConfig cfg = golden_config();
  cfg.relay_mode = RelayMode::kCutThrough;
  EXPECT_EQ(route_fingerprint(tree_system(), std::move(cfg)),
            "icn1=462/317 ecn1_out=1389/32 icn2=1415/6 ecn1_in=1389/32");
}

TEST(SimGolden, LargeHomogeneousFatTree) {
  // N = 32768 (256 clusters of 128 nodes): the only golden whose channel
  // state and route memo are far larger than the caches, at the
  // benchmark's scale_32k system and load with short phases.
  topo::MultiClusterTopology topology(
      topo::SystemConfig::homogeneous(8, 3, 256));
  SimConfig cfg = golden_config();
  cfg.warmup_messages = 2000;
  cfg.measured_messages = 20000;
  cfg.batch_size = 1000;
  Simulator sim(topology, model::NetworkParams{}, 2e-5, std::move(cfg));
  const SimResult r = sim.run();
  const EventQueueCounters& q = r.queue;
  EXPECT_EQ("mean=" + hex(r.latency.mean) + " p99=" + hex(r.latency_p99) +
                " events=" + std::to_string(r.events_processed) +
                " worms=" + std::to_string(r.worms_spawned) +
                " generate=" + std::to_string(q.generate_pushes) +
                " direct=" + std::to_string(q.direct_pushes) +
                " lane=" + std::to_string(q.lane_pushes) +
                " run=" + std::to_string(q.run_pushes) +
                " peak=" + std::to_string(q.peak_size),
            "mean=0x1.d7d965b65ea74p+5 p99=0x1.55b2136b371cp+6 "
            "events=912296 worms=65975 generate=54815 direct=0 "
            "lane=412283 run=478217 peak=33175");
}

}  // namespace
}  // namespace mcs::sim
