#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "exp/thread_pool.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// All of a partition's mutable state lives here, so during a round each
// worker touches exactly one Partition (plus read-only shared tables) —
// the no-shared-writes property TSan checks and the determinism contract
// relies on. Non-movable: the engine holds references to queue and hooks.
struct ParallelSimulator::Partition {
  std::int32_t index;
  std::int64_t node_base;
  std::int64_t node_count;

  EventQueue queue;
  Hooks hooks;
  WormholeEngine engine;
  RouteTables routes;
  DestinationSampler sampler;  ///< own instance per partition (stateless)
  std::vector<util::Rng> rng;  ///< per local node, forked by GLOBAL id

  std::vector<MsgRec> msgs;
  std::vector<std::int32_t> free_msgs;

  // Sharded phase accounting (DESIGN.md §16): each partition runs its own
  // warmup/measured quota, split from the global counts by node share.
  std::int64_t generated = 0;
  std::int64_t warmup_quota = 0;
  std::int64_t measured_quota = 0;
  std::int64_t delivered_measured = 0;
  double measure_start = 0.0;
  double now = 0.0;  ///< time of the last locally processed event
  std::uint64_t events = 0;

  util::OnlineMoments source_wait;
  util::OnlineMoments conc_wait;
  util::OnlineMoments disp_wait;
  std::vector<DeliveredRec> delivered;
  std::vector<std::int64_t> per_cluster_count;  ///< by src cluster (probes)

  std::vector<Outbox> out;  ///< one per destination partition

  Partition(ParallelSimulator& sim, std::int32_t idx, std::int64_t base,
            std::int64_t count)
      : index(idx),
        node_base(base),
        node_count(count),
        engine(sim.layout_.service, sim.params_.message_flits, queue, hooks,
               sim.config_.flow_control, sim.layout_.service_class),
        sampler(sim.topology_, sim.config_.pattern) {
    hooks.self = &sim;
    hooks.p = idx;
    engine.set_partition_port(&hooks);
    routes.init(sim.topology_, sim.layout_);
    engine.reserve_worms(256, sim.layout_.max_path_len);
    queue.enable_generate_lane(static_cast<std::size_t>(count));
    queue.reserve(256 * static_cast<std::size_t>(sim.layout_.max_path_len + 2));
    per_cluster_count.assign(
        static_cast<std::size_t>(sim.partition_count_), 0);
    out.resize(static_cast<std::size_t>(sim.partition_count_));
  }
};

ParallelSimulator::ParallelSimulator(const topo::MultiClusterTopology& topology,
                                     const model::NetworkParams& params,
                                     double lambda_g, SimConfig config)
    : topology_(topology),
      params_(params),
      lambda_(lambda_g),
      config_(std::move(config)) {
  params_.validate();
  if (!(lambda_ > 0.0))
    throw ConfigError("ParallelSimulator: lambda_g must be > 0");
  if (config_.measured_messages < 1 || config_.warmup_messages < 0)
    throw ConfigError("ParallelSimulator: bad phase configuration");
  if (config_.warmup_fraction < 0.0 || config_.warmup_fraction >= 1.0)
    throw ConfigError("ParallelSimulator: warmup_fraction must be in [0, 1)");
  if (config_.parallel < 1)
    throw ConfigError("ParallelSimulator: config.parallel must be >= 1");
  if (config_.trace != nullptr || config_.anatomy != nullptr)
    throw ConfigError(
        "parallel mode supports probes only: trace and anatomy observers "
        "record total-order span streams the sharded event loops cannot "
        "produce (set parallel = 0 to attach them)");

  layout_ = build_layout(topology_, params_, config_.relay_mode,
                         config_.flow_control);
  const auto& cfg = topology_.config();
  partition_count_ = cfg.cluster_count();

  if (config_.flow_control == FlowControl::kWormhole && partition_count_ > 1 &&
      params_.message_flits < layout_.max_path_len + 1)
    throw ConfigError(
        "parallel wormhole runs require message_flits >= longest path + 1 "
        "(got M=" + std::to_string(params_.message_flits) + ", longest path " +
        std::to_string(layout_.max_path_len) +
        "): the extra flit is what guarantees remotely held channels "
        "release with positive lookahead (DESIGN.md §16)");

  // Channel ownership. ICN1/ECN1 channels belong to their cluster's
  // partition outright. On the ICN2, the first channel of the route
  // (i -> j) is cluster i's injection link and the last is cluster j's
  // ejection link; owning them by i resp. j keeps every segment SPAWN
  // local to the partition that runs the preceding on_worm_done (the
  // load-bearing property — interior channels are arbitrary, so they
  // round-robin).
  owner_.assign(layout_.channel_count(), -1);
  for (std::size_t c = 0; c < layout_.channel_count(); ++c) {
    const Net& net =
        layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])];
    if (net.kind != NetKind::kIcn2) owner_[c] = net.cluster;
  }
  const auto claim = [&](GlobalChannelId c, std::int32_t p) {
    auto& slot = owner_[static_cast<std::size_t>(c)];
    if (slot >= 0 && slot != p)
      throw ConfigError(
          "ParallelSimulator: ambiguous ICN2 channel ownership (channel " +
          std::to_string(c) + " claimed by partitions " +
          std::to_string(slot) + " and " + std::to_string(p) + ")");
    slot = p;
  };
  std::vector<topo::ChannelId> scratch;
  for (int i = 0; i < partition_count_; ++i) {
    for (int j = 0; j < partition_count_; ++j) {
      if (i == j) continue;
      scratch.clear();
      topology_.icn2().route_into(topology_.icn2_endpoint(i),
                                  topology_.icn2_endpoint(j), scratch);
      if (scratch.empty()) continue;
      claim(layout_.icn2_base + scratch.front(), i);
      claim(layout_.icn2_base + scratch.back(), j);
    }
  }
  for (std::size_t c = 0; c < owner_.size(); ++c)
    if (owner_[c] < 0)
      owner_[c] = static_cast<std::int32_t>(
          c % static_cast<std::size_t>(partition_count_));

  // Conservative lookahead. Hand-offs are stamped one crossing of the
  // just-granted channel ahead, and the granted-before-remote channel is
  // always an ICN2 channel (ICN1/ECN1 legs are partition-local end to
  // end). Remote releases (wormhole only) carry at least one service time
  // of the released channel, which under cut-through can be a source-ECN1
  // channel held across the migration.
  double min_icn2 = kInf;
  double min_ecn1 = kInf;
  for (std::size_t c = 0; c < layout_.channel_count(); ++c) {
    const NetKind kind =
        layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])].kind;
    if (kind == NetKind::kIcn2)
      min_icn2 = std::min(min_icn2, layout_.service[c]);
    else if (kind == NetKind::kEcn1)
      min_ecn1 = std::min(min_ecn1, layout_.service[c]);
  }
  if (partition_count_ <= 1) {
    // Single partition: no boundary messages exist, so any bound is safe
    // and each round runs until a stop condition.
    lookahead_ = kInf;
  } else if (config_.flow_control == FlowControl::kWormhole) {
    MCS_ASSERT(min_icn2 < kInf);
    lookahead_ = min_icn2;
    if (config_.relay_mode == RelayMode::kCutThrough)
      lookahead_ = std::min(lookahead_, min_ecn1);
  } else {
    // Store-and-forward: hand-offs cross a whole message per channel and
    // no channel is ever held remotely (one channel at a time).
    MCS_ASSERT(min_icn2 < kInf);
    lookahead_ = static_cast<double>(params_.message_flits) * min_icn2;
  }
  MCS_ENSURES(lookahead_ > 0.0);

  const std::int64_t n = topology_.total_nodes();
  MCS_EXPECTS(n <= EventQueue::kMaxPayload);
  cluster_of_.reserve(static_cast<std::size_t>(n));
  local_of_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < partition_count_; ++i) {
    const auto size = static_cast<topo::EndpointId>(cfg.cluster_size(i));
    for (topo::EndpointId l = 0; l < size; ++l) {
      cluster_of_.push_back(i);
      local_of_.push_back(l);
    }
  }
  cluster_lambda_.reserve(static_cast<std::size_t>(partition_count_));
  for (int i = 0; i < partition_count_; ++i)
    cluster_lambda_.push_back(cfg.cluster_load_scale(i) * lambda_);

  // Build the partitions and their phase quotas: warmup/measured counts
  // split proportionally to node share, remainders to the lowest
  // partition ids — config-determined, so the quota split (and with it
  // the measured-message set) never depends on the worker count.
  util::Rng master(config_.seed);
  parts_.reserve(static_cast<std::size_t>(partition_count_));
  std::int64_t base = 0;
  for (int i = 0; i < partition_count_; ++i) {
    const std::int64_t count = cfg.cluster_size(i);
    parts_.push_back(std::make_unique<Partition>(
        *this, static_cast<std::int32_t>(i), base, count));
    Partition& part = *parts_.back();
    part.rng.reserve(static_cast<std::size_t>(count));
    for (std::int64_t g = 0; g < count; ++g)
      part.rng.push_back(master.fork(static_cast<std::uint64_t>(base + g)));
    base += count;
  }
  MCS_ENSURES(base == n);
  const auto split_quota = [&](std::int64_t total,
                               auto member) {
    std::int64_t assigned = 0;
    for (auto& up : parts_) {
      const std::int64_t share = total * up->node_count / n;
      (*up).*member = share;
      assigned += share;
    }
    for (std::size_t p = 0; assigned < total; ++p, ++assigned)
      ++((*parts_[p]).*member);
  };
  split_quota(config_.warmup_messages, &Partition::warmup_quota);
  split_quota(config_.measured_messages, &Partition::measured_quota);

  waiting_cap_ = config_.max_waiting_worms > 0
                     ? config_.max_waiting_worms
                     : std::max<std::int64_t>(10'000, 50 * n);
  generated_cap_ =
      config_.max_generated > 0
          ? config_.max_generated
          : 4 * (config_.warmup_messages + config_.measured_messages);

  probes_ = config_.probes;
  if (probes_ != nullptr)
    for (std::size_t c = 0; c < layout_.channel_net.size(); ++c)
      ++class_channels_[static_cast<int>(
          layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])]
              .kind)];
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::Hooks::on_worm_done(WormId worm, double time) {
  Partition& part = *self->parts_[static_cast<std::size_t>(p)];
  const Worm& w = part.engine.worm(worm);
  MsgRec& m = part.msgs[static_cast<std::size_t>(w.msg)];

  if (m.measured) {
    const double wait =
        part.engine.acquire_times(worm).front() - w.enqueue_time;
    switch (m.segment) {
      case 0:
      case 1:
      case 4:
        part.source_wait.add(wait);
        break;
      case 2:
        part.conc_wait.add(wait);
        break;
      case 3:
        part.disp_wait.add(wait);
        break;
      default:
        MCS_ASSERT(false);
    }
  }

  if (m.segment == 0 || m.segment == 3 || m.segment == 4) {
    self->finalize(part, w.msg, time);
  } else {
    ++m.segment;
    self->spawn_segment(part, w.msg, time);
  }
}

bool ParallelSimulator::Hooks::local_channel(GlobalChannelId c) const {
  return self->owner_[static_cast<std::size_t>(c)] == p;
}

void ParallelSimulator::Hooks::handoff(WormId id, double at) {
  Partition& part = *self->parts_[static_cast<std::size_t>(p)];
  const Worm& w = part.engine.worm(id);
  const std::span<const GlobalChannelId> path = part.engine.path_of(id);
  const std::span<const double> acq = part.engine.acquire_times(id);
  const std::int32_t hop = w.hop + 1;  // channel to request on arrival
  const std::int32_t dest =
      self->owner_[static_cast<std::size_t>(path[static_cast<std::size_t>(hop)])];
  MCS_ASSERT(dest != p);
  Outbox& ob = part.out[static_cast<std::size_t>(dest)];

  Outbox::Handoff h;
  h.at = at;
  h.enqueue_time = w.enqueue_time;
  h.hop = hop;
  h.len = w.len;
  h.path_off = static_cast<std::int32_t>(ob.path_data.size());
  ob.path_data.insert(ob.path_data.end(), path.begin(), path.end());
  h.acq_off = static_cast<std::int32_t>(ob.acq_data.size());
  ob.acq_data.insert(ob.acq_data.end(), acq.begin(),
                     acq.begin() + hop);
  h.msg = part.msgs[static_cast<std::size_t>(w.msg)];
  ob.handoffs.push_back(h);
  // The message record travels with the worm; recycle the local slot.
  part.free_msgs.push_back(w.msg);
}

void ParallelSimulator::Hooks::remote_release(GlobalChannelId c, double at) {
  Partition& part = *self->parts_[static_cast<std::size_t>(p)];
  const std::int32_t dest = self->owner_[static_cast<std::size_t>(c)];
  MCS_ASSERT(dest != p);
  part.out[static_cast<std::size_t>(dest)].releases.push_back(
      Outbox::Release{at, c});
}

void ParallelSimulator::run_round(Partition& part, double bound) {
  EventQueue& q = part.queue;
  while (!q.empty()) {
    const Event ev = q.top();
    if (!(ev.time < bound)) break;
    if ((part.events & 0xFFF) == 0) {
      // Local early-out, checked at the sequential simulator's cadence.
      // Every predicate compares LOCAL monotone state against a GLOBAL
      // cap, so a trip here implies the barrier's global check also
      // trips — sound, and independent of the worker count.
      if (part.events > config_.max_events || part.now > config_.max_time ||
          part.engine.waiting_worms() > waiting_cap_ ||
          part.generated > generated_cap_ ||
          part.delivered_measured >= config_.measured_messages)
        break;
    }
    q.pop();
    ++part.events;
    part.now = ev.time;
    if (ev.kind == EventKind::kGenerate) {
      handle_generate(part, ev.a, ev.time);
    } else {
      part.engine.handle(ev);
    }
  }
}

void ParallelSimulator::handle_generate(Partition& part, std::int32_t node,
                                        double now) {
  auto& rng = part.rng[static_cast<std::size_t>(node - part.node_base)];
  part.queue.push(now + rng.exponential(node_lambda(part.index)),
                  EventKind::kGenerate, node);

  const std::int64_t idx = part.generated++;
  if (idx == part.warmup_quota) {
    part.measure_start = now;
    if (config_.collect_channel_stats)
      part.engine.set_stats_window_start(now);
  }

  std::int32_t msg_id;
  if (!part.free_msgs.empty()) {
    msg_id = part.free_msgs.back();
    part.free_msgs.pop_back();
  } else {
    msg_id = static_cast<std::int32_t>(part.msgs.size());
    part.msgs.emplace_back();
  }
  MsgRec& m = part.msgs[static_cast<std::size_t>(msg_id)];

  const std::int32_t src_cluster = part.index;
  const std::int64_t dst_global = part.sampler.sample(node, src_cluster, rng);
  MCS_ASSERT(dst_global != node);

  m.gen_time = now;
  m.src_cluster = src_cluster;
  m.src_local = local_of_[static_cast<std::size_t>(node)];
  m.dst_cluster = cluster_of_[static_cast<std::size_t>(dst_global)];
  m.dst_local = local_of_[static_cast<std::size_t>(dst_global)];
  m.internal = m.dst_cluster == m.src_cluster;
  if (m.internal) {
    m.segment = 0;
  } else {
    m.segment = config_.relay_mode == RelayMode::kCutThrough
                    ? std::int8_t{4}
                    : std::int8_t{1};
  }
  m.measured =
      idx >= part.warmup_quota && idx < part.warmup_quota + part.measured_quota;
  m.trace_tid = -1;

  spawn_segment(part, msg_id, now);
}

void ParallelSimulator::spawn_segment(Partition& part, std::int32_t msg_id,
                                      double now) {
  const MsgRec& m = part.msgs[static_cast<std::size_t>(msg_id)];
  // Every case's FIRST channel is owned by this partition (the ICN2
  // injection/ejection ownership rule exists for exactly this), so the
  // spawn contends on a local FIFO.
  switch (m.segment) {
    case 0:
      part.engine.spawn(msg_id, part.routes.icn1(m), now);
      return;
    case 1:
      part.engine.spawn(msg_id, part.routes.ecn1_out(m), now);
      return;
    case 2:
      part.engine.spawn(msg_id, part.routes.icn2(m), now);
      return;
    case 3:
      part.engine.spawn(msg_id, part.routes.ecn1_in(m), now);
      return;
    case 4:
      part.engine.spawn(msg_id, part.routes.cut_through(m), now);
      return;
    default:
      MCS_ASSERT(false);
  }
}

void ParallelSimulator::finalize(Partition& part, std::int32_t msg_id,
                                 double now) {
  MsgRec& m = part.msgs[static_cast<std::size_t>(msg_id)];
  if (m.measured) {
    part.delivered.push_back(DeliveredRec{
        now, now - m.gen_time, m.src_cluster,
        static_cast<std::uint8_t>(m.internal ? 1 : 0)});
    ++part.per_cluster_count[static_cast<std::size_t>(m.src_cluster)];
    ++part.delivered_measured;
  }
  part.free_msgs.push_back(msg_id);
}

void ParallelSimulator::deliver_mailboxes() {
  // Per receiver: concatenate every sender's envelopes in (sender,
  // releases-then-handoffs, send index) order, then stable_sort by
  // timestamp — the pinned merged order. Local sequence numbers are
  // assigned by the pushes below, so the receiver's (time, seq) total
  // order is identical no matter how many worker threads ran the round.
  // mcs-lint: note(unordered-iter) ordered reduction: the gather below
  // runs in arbitrary per-sender order, but the stable_sort pins the
  // consumed order to (time, sender, kind, send index) — scheduling
  // never reaches the merged stream.
  struct Entry {
    double at;
    std::int32_t sender;
    std::int32_t kind;  ///< 0 = release, 1 = handoff
    std::size_t idx;
  };
  std::vector<Entry> entries;
  for (std::int32_t q = 0; q < partition_count_; ++q) {
    Partition& recv = *parts_[static_cast<std::size_t>(q)];
    entries.clear();
    for (std::int32_t p = 0; p < partition_count_; ++p) {
      const Outbox& ob =
          parts_[static_cast<std::size_t>(p)]->out[static_cast<std::size_t>(q)];
      for (std::size_t i = 0; i < ob.releases.size(); ++i)
        entries.push_back(Entry{ob.releases[i].at, p, 0, i});
      for (std::size_t i = 0; i < ob.handoffs.size(); ++i)
        entries.push_back(Entry{ob.handoffs[i].at, p, 1, i});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.at < b.at;
                     });
    for (const Entry& e : entries) {
      const Outbox& ob = parts_[static_cast<std::size_t>(e.sender)]
                             ->out[static_cast<std::size_t>(q)];
      if (e.kind == 0) {
        const Outbox::Release& r = ob.releases[e.idx];
        recv.queue.push(r.at, EventKind::kRelease, r.channel);
        continue;
      }
      const Outbox::Handoff& h = ob.handoffs[e.idx];
      std::int32_t msg_id;
      if (!recv.free_msgs.empty()) {
        msg_id = recv.free_msgs.back();
        recv.free_msgs.pop_back();
      } else {
        msg_id = static_cast<std::int32_t>(recv.msgs.size());
        recv.msgs.emplace_back();
      }
      recv.msgs[static_cast<std::size_t>(msg_id)] = h.msg;
      recv.engine.adopt(
          msg_id,
          {ob.path_data.data() + h.path_off,
           static_cast<std::size_t>(h.len)},
          {ob.acq_data.data() + h.acq_off, static_cast<std::size_t>(h.hop)},
          h.hop, h.enqueue_time, h.at);
    }
  }
  for (auto& up : parts_)
    for (Outbox& ob : up->out) ob.clear();
}

void ParallelSimulator::record_probe(double now) {
  obs::ProbeSample s;
  s.time = now;
  double busy[obs::kNetClasses] = {0.0, 0.0, 0.0};
  s.per_cluster_delivered.assign(
      static_cast<std::size_t>(partition_count_), 0);
  for (const auto& up : parts_) {
    const Partition& part = *up;
    s.events += part.events;
    s.queue_depth += static_cast<std::int64_t>(part.queue.size());
    s.live_worms += part.engine.live_worms();
    s.waiting_worms += part.engine.waiting_worms();
    s.pool_rows += part.engine.pool_rows();
    s.generated += part.generated;
    s.delivered_measured += part.delivered_measured;
    for (std::size_t c = 0; c < layout_.channel_net.size(); ++c)
      busy[static_cast<int>(
          layout_.nets[static_cast<std::size_t>(layout_.channel_net[c])]
              .kind)] +=
          part.engine.busy_time(static_cast<GlobalChannelId>(c));
    for (std::size_t i = 0; i < part.per_cluster_count.size(); ++i)
      s.per_cluster_delivered[i] += part.per_cluster_count[i];
  }
  const double dt = now - probe_prev_time_;
  for (int k = 0; k < obs::kNetClasses; ++k) {
    if (dt > 0.0 && class_channels_[k] > 0) {
      const double u = (busy[k] - probe_prev_busy_[k]) /
                       (dt * static_cast<double>(class_channels_[k]));
      s.utilization[k] = std::clamp(u, 0.0, 1.0);
    }
    probe_prev_busy_[k] = busy[k];
  }
  probe_prev_time_ = now;
  probes_->record(std::move(s));
}

SimResult ParallelSimulator::run() {
  for (auto& up : parts_) {
    if (config_.collect_channel_stats) {
      up->engine.enable_channel_stats();
    } else if (probes_ != nullptr) {
      // Same window semantics as the sequential simulator: probes-only
      // runs account busy time over the whole run.
      up->engine.enable_channel_stats();
      up->engine.set_stats_window_start(0.0);
    }
    for (std::int64_t g = 0; g < up->node_count; ++g) {
      const auto node = static_cast<std::int32_t>(up->node_base + g);
      up->queue.push(up->rng[static_cast<std::size_t>(g)].exponential(
                         node_lambda(up->index)),
                     EventKind::kGenerate, node);
    }
  }

  exp::ThreadPool pool(std::min(config_.parallel, partition_count_));

  // Conservative windows are often tiny (low-load runs can carry a
  // single event per round), and a pool dispatch costs far more than
  // processing one event. Rounds are scheduling-independent — the bits
  // are identical no matter which thread runs which partition (pinned by
  // the worker-count-invariance tests) — so the executor is chosen
  // adaptively: a round fans out to the pool only when the previous
  // round carried enough work to amortize the dispatch, and runs inline
  // on this thread otherwise.
  constexpr std::uint64_t kPoolRoundThreshold = 512;
  std::uint64_t prev_events_total = 0;
  std::uint64_t round_events = 0;

  SimResult result;
  double tmax = 0.0;
  for (;;) {
    std::int64_t delivered = 0;
    std::int64_t generated = 0;
    std::int64_t waiting = 0;
    std::uint64_t events = 0;
    tmax = 0.0;
    for (const auto& up : parts_) {
      delivered += up->delivered_measured;
      generated += up->generated;
      waiting += up->engine.waiting_worms();
      events += up->events;
      tmax = std::max(tmax, up->now);
    }
    if (delivered >= config_.measured_messages) break;
    int cause = 0;
    if (events > config_.max_events)
      cause = 1;
    else if (tmax > config_.max_time)
      cause = 2;
    else if (waiting > waiting_cap_)
      cause = 3;
    else if (generated > generated_cap_)
      cause = 4;
    if (cause != 0) {
      const StopCauseText text = stop_cause_text(cause);
      result.saturated = true;
      result.saturation_reason = text.reason;
      result.saturation_cause = text.cause;
      break;
    }

    round_events = events - prev_events_total;
    prev_events_total = events;

    double tmin = kInf;
    for (const auto& up : parts_)
      if (!up->queue.empty()) tmin = std::min(tmin, up->queue.top().time);
    MCS_ASSERT(tmin < kInf);  // the per-node kGenerate events never drain
    const double bound = tmin + lookahead_;
    if (round_events >= kPoolRoundThreshold) {
      pool.parallel_for(partition_count_, [&](std::int64_t i) {
        run_round(*parts_[static_cast<std::size_t>(i)], bound);
      });
    } else {
      for (const auto& up : parts_) run_round(*up, bound);
    }
    deliver_mailboxes();

    if (probes_ != nullptr) {
      double t = 0.0;
      for (const auto& up : parts_) t = std::max(t, up->now);
      if (probes_->due(t)) record_probe(t);
    }
  }
  if (probes_ != nullptr &&
      (probes_->samples().empty() ||
       tmax > probes_->samples().back().time)) {
    record_probe(tmax);
  }

  // Merge the per-partition delivery streams in the pinned (time,
  // partition, record index) order and rebuild the latency statistics
  // from the merged stream — the parallel mode's deterministic analogue
  // of the sequential simulator's delivery-order accumulation.
  std::size_t total_recs = 0;
  for (const auto& up : parts_) total_recs += up->delivered.size();
  std::vector<DeliveredRec> recs;
  recs.reserve(total_recs);
  for (const auto& up : parts_)
    recs.insert(recs.end(), up->delivered.begin(), up->delivered.end());
  std::stable_sort(recs.begin(), recs.end(),
                   [](const DeliveredRec& a, const DeliveredRec& b) {
                     return a.time < b.time;
                   });

  std::vector<double> latencies;
  latencies.reserve(recs.size());
  for (const DeliveredRec& r : recs) latencies.push_back(r.latency);

  std::size_t cut = 0;
  if (config_.warmup_deletion != WarmupDeletion::kOff && !recs.empty()) {
    const std::size_t measured = latencies.size();
    cut = static_cast<std::size_t>(config_.warmup_fraction *
                                   static_cast<double>(measured));
    if (config_.warmup_deletion == WarmupDeletion::kMser5) {
      const util::Mser5Result mser = util::mser5_cutoff(latencies);
      if (mser.undetermined) {
        result.warmup_fallback = true;  // keep the fixed-fraction cut
      } else {
        cut = mser.cutoff;
      }
    }
    if (cut >= measured) cut = measured - 1;  // always keep >= one message
    result.warmup_deleted = static_cast<std::int64_t>(cut);
  }

  util::BatchMeans latency(config_.batch_size);
  util::BatchMeans internal_latency(config_.batch_size);
  util::BatchMeans external_latency(config_.batch_size);
  std::vector<util::OnlineMoments> per_cluster(
      static_cast<std::size_t>(partition_count_));
  std::vector<double> measured_latencies;
  measured_latencies.reserve(recs.size() - cut);
  for (std::size_t i = cut; i < recs.size(); ++i) {
    const DeliveredRec& r = recs[i];
    latency.add(r.latency);
    measured_latencies.push_back(r.latency);
    (r.internal != 0 ? internal_latency : external_latency).add(r.latency);
    per_cluster[static_cast<std::size_t>(r.src_cluster)].add(r.latency);
  }

  util::OnlineMoments source_wait;
  util::OnlineMoments conc_wait;
  util::OnlineMoments disp_wait;
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t spawned = 0;
  for (const auto& up : parts_) {
    source_wait.merge(up->source_wait);
    conc_wait.merge(up->conc_wait);
    disp_wait.merge(up->disp_wait);
    generated += up->generated;
    delivered += up->delivered_measured;
    events += up->events;
    spawned += up->engine.total_spawned();
    const EventQueueCounters q = up->queue.counters();
    result.queue.generate_pushes += q.generate_pushes;
    result.queue.direct_pushes += q.direct_pushes;
    result.queue.lane_pushes += q.lane_pushes;
    result.queue.run_pushes += q.run_pushes;
    result.queue.pops += q.pops;
    result.queue.peak_size = std::max(result.queue.peak_size, q.peak_size);
  }

  result.latency = latency.interval();
  if (!measured_latencies.empty()) {
    result.latency_p50 = util::percentile_inplace(measured_latencies, 0.50);
    result.latency_p95 = util::percentile_inplace(measured_latencies, 0.95);
    result.latency_p99 = util::percentile_inplace(measured_latencies, 0.99);
  }
  result.internal_latency = internal_latency.interval();
  result.external_latency = external_latency.interval();
  result.mean_source_wait = source_wait.mean();
  result.mean_conc_wait = conc_wait.mean();
  result.mean_disp_wait = disp_wait.mean();
  result.generated = generated;
  result.delivered_measured = delivered;
  result.measured_internal =
      static_cast<std::int64_t>(internal_latency.count());
  result.measured_external =
      static_cast<std::int64_t>(external_latency.count());
  result.end_time = tmax;
  result.events_processed = events;
  result.worms_spawned = spawned;
  for (const auto& m : per_cluster) {
    result.per_cluster_latency.push_back(m.mean());
    result.per_cluster_count.push_back(static_cast<std::int64_t>(m.count()));
  }

  if (config_.collect_channel_stats) {
    // Per-partition busy windows open at each partition's LOCAL warmup
    // boundary; the merged duration is normalized from the latest one —
    // the parallel mode's documented measured-window semantics.
    std::vector<double> busy(layout_.channel_count(), 0.0);
    std::vector<std::uint64_t> traversals(layout_.channel_count(), 0);
    double measure_start = 0.0;
    for (const auto& up : parts_) {
      measure_start = std::max(measure_start, up->measure_start);
      for (std::size_t c = 0; c < layout_.channel_count(); ++c) {
        busy[c] += up->engine.busy_time(static_cast<GlobalChannelId>(c));
        traversals[c] +=
            up->engine.traversals(static_cast<GlobalChannelId>(c));
      }
    }
    collect_channel_classes(layout_, busy, traversals,
                            result.end_time - measure_start, result);
  }
  if (probes_ != nullptr && !probes_->samples().empty()) {
    result.has_last_probe = true;
    result.last_probe = probes_->samples().back();
  }
  return result;
}

SimResult run_simulation(const topo::MultiClusterTopology& topology,
                         const model::NetworkParams& params, double lambda_g,
                         const SimConfig& config) {
  if (config.parallel > 0)
    return ParallelSimulator(topology, params, lambda_g, config).run();
  return Simulator(topology, params, lambda_g, config).run();
}

}  // namespace mcs::sim
