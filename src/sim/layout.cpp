#include "sim/layout.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::sim {

SimLayout build_layout(const topo::MultiClusterTopology& topology,
                       const model::NetworkParams& params,
                       RelayMode relay_mode, FlowControl flow_control) {
  SimLayout layout;
  const auto& cfg = topology.config();
  GlobalChannelId base = 0;
  int longest = 0;
  for (int i = 0; i < cfg.cluster_count(); ++i) {
    layout.nets.push_back(Net{NetKind::kIcn1, i, &topology.icn1(i), base});
    layout.icn1_base.push_back(base);
    base += static_cast<GlobalChannelId>(topology.icn1(i).channel_count());
    layout.nets.push_back(Net{NetKind::kEcn1, i, &topology.ecn1(i), base});
    layout.ecn1_base.push_back(base);
    base += static_cast<GlobalChannelId>(topology.ecn1(i).channel_count());
    longest = std::max(longest, 2 * topology.icn1(i).height());
  }
  layout.nets.push_back(Net{NetKind::kIcn2, -1, &topology.icn2(), base});
  layout.icn2_base = base;
  base += static_cast<GlobalChannelId>(topology.icn2().channel_count());
  const int icn2_longest = topology.icn2().max_route_length();
  if (relay_mode == RelayMode::kCutThrough) {
    // One merged worm spans both ECN1 legs plus the ICN2 crossing (the
    // ICN2 route's injection/ejection channels are the concentrator
    // relays, still part of the worm).
    int max_cluster = 0;
    for (int i = 0; i < cfg.cluster_count(); ++i)
      max_cluster = std::max(max_cluster, topology.icn1(i).height());
    longest = std::max(longest, 4 * max_cluster + icn2_longest);
  } else {
    longest = std::max(longest, icn2_longest);
  }

  layout.max_path_len = longest;
  if (flow_control == FlowControl::kWormhole && longest > params.message_flits)
    throw ConfigError(
        "Simulator: message_flits (M=" + std::to_string(params.message_flits) +
        ") is shorter than the longest path (" + std::to_string(longest) +
        " channels); the wormhole engine requires a worm to span its "
        "path (see DESIGN.md)");

  layout.service.resize(static_cast<std::size_t>(base));
  layout.service_class.resize(static_cast<std::size_t>(base));
  layout.channel_net.assign(static_cast<std::size_t>(base), 0);
  std::vector<double> distinct;  // service times classified so far
  for (std::size_t n = 0; n < layout.nets.size(); ++n) {
    const Net& net = layout.nets[n];
    // The owning network's technology decides the channel timing: cluster
    // networks use the cluster's params, the ICN2 its own. On homogeneous
    // configs every resolution returns params' exact bits, keeping the
    // golden fingerprints unchanged.
    const model::NetworkParams np =
        net.kind == NetKind::kIcn2 ? cfg.icn2_params(params)
                                   : cfg.cluster_params(net.cluster, params);
    const double tcn = np.t_cn();
    const double tcs = np.t_cs();
    const std::uint16_t kcn = service_class(distinct, tcn);
    const std::uint16_t kcs = service_class(distinct, tcs);
    for (std::size_t c = 0; c < net.net->channel_count(); ++c) {
      const auto g = static_cast<std::size_t>(net.base) + c;
      layout.channel_net[g] = static_cast<std::int32_t>(n);
      const bool node_link = topo::is_node_link(
          net.net->channel(static_cast<topo::ChannelId>(c)).kind);
      layout.service[g] = node_link ? tcn : tcs;
      layout.service_class[g] = node_link ? kcn : kcs;
    }
  }
  return layout;
}

void RouteTables::init(const topo::MultiClusterTopology& topology,
                       const SimLayout& layout) {
  topology_ = &topology;
  layout_ = &layout;
  counts_ = {};
  const int clusters = topology.config().cluster_count();
  icn1_routes_.resize(static_cast<std::size_t>(clusters));
  ecn1_to_conc_.resize(static_cast<std::size_t>(clusters));
  ecn1_from_conc_.resize(static_cast<std::size_t>(clusters));
  for (int i = 0; i < clusters; ++i) {
    const auto size = static_cast<std::size_t>(topology.config().cluster_size(i));
    icn1_routes_[static_cast<std::size_t>(i)].resize(size * size);
    ecn1_to_conc_[static_cast<std::size_t>(i)].resize(size);
    ecn1_from_conc_[static_cast<std::size_t>(i)].resize(size);
  }
  icn2_routes_.resize(static_cast<std::size_t>(clusters) *
                      static_cast<std::size_t>(clusters));
}

std::span<const GlobalChannelId> RouteTables::route_via(
    RouteSlot& slot, RouteMemoCount& count, const topo::Network& net,
    GlobalChannelId base, topo::EndpointId src, topo::EndpointId dst) {
  if (slot.off >= 0) {
    ++count.hits;
  } else {
    ++count.misses;
    route_scratch_.clear();
    net.route_into(src, dst, route_scratch_);
    slot.off = static_cast<std::int32_t>(pool_.size());
    slot.len = static_cast<std::int16_t>(route_scratch_.size());
    for (const topo::ChannelId c : route_scratch_)
      pool_.push_back(base + c);
  }
  return {pool_.data() + slot.off, static_cast<std::size_t>(slot.len)};
}

std::span<const GlobalChannelId> RouteTables::icn1(const MsgRec& m) {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  const auto size =
      static_cast<std::size_t>(topology_->config().cluster_size(m.src_cluster));
  return route_via(
      icn1_routes_[sc][static_cast<std::size_t>(m.src_local) * size +
                       static_cast<std::size_t>(m.dst_local)],
      counts_.icn1, topology_->icn1(m.src_cluster), layout_->icn1_base[sc],
      m.src_local, m.dst_local);
}

std::span<const GlobalChannelId> RouteTables::ecn1_out(const MsgRec& m) {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  return route_via(ecn1_to_conc_[sc][static_cast<std::size_t>(m.src_local)],
                   counts_.ecn1_out, topology_->ecn1(m.src_cluster),
                   layout_->ecn1_base[sc], m.src_local,
                   topology_->concentrator_endpoint(m.src_cluster));
}

std::span<const GlobalChannelId> RouteTables::icn2(const MsgRec& m) {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  const auto dc = static_cast<std::size_t>(m.dst_cluster);
  const auto clusters =
      static_cast<std::size_t>(topology_->config().cluster_count());
  return route_via(icn2_routes_[sc * clusters + dc], counts_.icn2,
                   topology_->icn2(), layout_->icn2_base,
                   topology_->icn2_endpoint(m.src_cluster),
                   topology_->icn2_endpoint(m.dst_cluster));
}

std::span<const GlobalChannelId> RouteTables::ecn1_in(const MsgRec& m) {
  const auto dc = static_cast<std::size_t>(m.dst_cluster);
  return route_via(
      ecn1_from_conc_[dc][static_cast<std::size_t>(m.dst_local)],
      counts_.ecn1_in, topology_->ecn1(m.dst_cluster),
      layout_->ecn1_base[dc], topology_->concentrator_endpoint(m.dst_cluster),
      m.dst_local);
}

void RouteTables::prefetch_relay_legs(const MsgRec& m) const {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  const auto dc = static_cast<std::size_t>(m.dst_cluster);
  const auto clusters =
      static_cast<std::size_t>(topology_->config().cluster_count());
  __builtin_prefetch(&icn2_routes_[sc * clusters + dc]);
  __builtin_prefetch(
      &ecn1_from_conc_[dc][static_cast<std::size_t>(m.dst_local)]);
}

std::span<const GlobalChannelId> RouteTables::cut_through(const MsgRec& m) {
  // Concatenate the three legs into one worm. The relays act as one-flit
  // buffers along the path instead of full queues. Each cached span is
  // copied before the next lookup (a cache miss may reallocate pool_ and
  // invalidate earlier spans).
  path_scratch_.clear();
  const auto append = [&](std::span<const GlobalChannelId> leg) {
    path_scratch_.insert(path_scratch_.end(), leg.begin(), leg.end());
  };
  append(ecn1_out(m));
  append(icn2(m));
  append(ecn1_in(m));
  return path_scratch_;
}

}  // namespace mcs::sim
