// Explicit construction of one m-port n-tree network and its deterministic
// Up*/Down* routing (Sec. 2 of the paper; topology from Lin [15], routing
// from Javadi et al. [18]).
//
// Coordinates (k = m/2): an endpoint is a digit string (p_1 .. p_n) with
// p_1 in [0, 2k) and p_i in [0, k) for i >= 2. A switch at level L
// (1 = leaf .. n = root) serves the endpoint *group* sharing the prefix
// (p_1 .. p_{n-L}) and carries a fat-tree multiplicity index
// sigma in [0, k)^(L-1). Connectivity:
//
//   <L, g, sigma> --up port u-->   <L+1, drop_last(g), sigma*k + u>
//   <L, g, sigma> --down port c--> <L-1, g appended c, sigma / k>
//
// Root switches (L = n, empty group) have 2k down ports and no up ports;
// every other switch has k down and k up ports. Leaf down ports attach the
// k endpoints of the leaf group. This reproduces exactly the counts of
// Eqs. (1)-(2) and the NCA distance structure of Eq. (4) (verified by an
// all-pairs census in the tests).
//
// A *concentrator/dispatcher* can be attached as an extra endpoint on leaf
// switch 0 through a dedicated port (attach_extra_endpoint); it behaves
// like a node with the all-zero address for routing purposes.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/network.hpp"
#include "topology/tree_math.hpp"

namespace mcs::topo {

class FatTree final : public Network {
 public:
  explicit FatTree(TreeShape shape);

  [[nodiscard]] const TreeShape& shape() const { return shape_; }
  [[nodiscard]] int k() const { return shape_.k(); }
  [[nodiscard]] int height() const { return shape_.n; }

  /// Regular endpoints (processing nodes), [0, endpoint_count()).
  [[nodiscard]] EndpointId endpoint_count() const { return endpoints_; }
  /// Extra endpoints (concentrators), ids in
  /// [endpoint_count(), total_endpoints()).
  [[nodiscard]] EndpointId extra_endpoint_count() const { return extras_; }
  [[nodiscard]] EndpointId total_endpoints() const override {
    return endpoints_ + extras_;
  }

  /// Attach a concentrator-style endpoint to leaf switch 0 via a dedicated
  /// extra port; returns its endpoint id.
  EndpointId attach_extra_endpoint();

  [[nodiscard]] SwitchId switch_count() const {
    return static_cast<SwitchId>(switch_level_.size());
  }
  [[nodiscard]] std::size_t channel_count() const override {
    return channels_.size();
  }
  [[nodiscard]] const Channel& channel(ChannelId id) const override {
    return channels_[static_cast<std::size_t>(id)];
  }

  // --- address arithmetic -------------------------------------------------

  /// Digit p_i (1-based position) of an endpoint address; extras are 0.
  [[nodiscard]] int digit(EndpointId e, int position) const;
  [[nodiscard]] SwitchId leaf_switch_of(EndpointId e) const;
  [[nodiscard]] int switch_level(SwitchId s) const override {
    return switch_level_[static_cast<std::size_t>(s)];
  }
  /// Group index of a switch at its level (prefix of endpoint digits).
  [[nodiscard]] std::int32_t switch_group(SwitchId s) const {
    return switch_group_[static_cast<std::size_t>(s)];
  }
  /// Fat-tree multiplicity index sigma (base-k digits (sigma_1..)).
  [[nodiscard]] std::int32_t switch_sigma(SwitchId s) const {
    return switch_sigma_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] ChannelId injection_channel(EndpointId e) const;
  [[nodiscard]] ChannelId ejection_channel(EndpointId e) const;
  /// Up channel of `s` on port u (s must not be a root switch).
  [[nodiscard]] ChannelId up_channel(SwitchId s, int u) const;
  /// Down channel of `s` on port c (s must be at level >= 2).
  [[nodiscard]] ChannelId down_channel(SwitchId s, int c) const;
  /// Number of down ports (2k at the root, else k).
  [[nodiscard]] int down_port_count(SwitchId s) const;

  // --- routing ------------------------------------------------------------

  /// NCA level j of a (src, dst) pair: the message crosses 2j links.
  [[nodiscard]] int nca_level(EndpointId src, EndpointId dst) const;

  /// Deterministic balanced Up*/Down* route: ascend with up-port choice
  /// u = (destination digit) mod k at each level (d-mod-k), then take the
  /// unique descending path. Returns the channel sequence
  /// [injection, up..., down..., ejection] of length 2*nca_level.
  using Network::route;

  /// Append the route to `out` (allocation-free hot path for the
  /// simulator). Returns the number of channels appended.
  int route_into(EndpointId src, EndpointId dst,
                 std::vector<ChannelId>& out) const override;

  /// Longest route: 2*height channels (NCA at the root level).
  [[nodiscard]] int max_route_length() const override {
    return 2 * height();
  }

 private:
  [[nodiscard]] SwitchId switch_id(int level, std::int32_t group,
                                   std::int32_t sigma) const;
  void build();

  TreeShape shape_;
  EndpointId endpoints_ = 0;
  EndpointId extras_ = 0;

  std::vector<std::int64_t> k_pow_;         ///< k_pow_[e] = k^e, e in [0, n]
  std::vector<std::int64_t> level_offset_;  ///< index: level 1..n
  std::vector<std::int8_t> switch_level_;
  std::vector<std::int32_t> switch_group_;
  std::vector<std::int32_t> switch_sigma_;

  std::vector<Channel> channels_;
  std::vector<ChannelId> inj_channel_;   ///< per regular endpoint
  std::vector<ChannelId> ej_channel_;    ///< per regular endpoint
  std::vector<ChannelId> up_first_;      ///< per switch; -1 for roots
  std::vector<ChannelId> down_first_;    ///< per switch; -1 for leaves
  std::vector<ChannelId> extra_inj_;     ///< per extra endpoint
  std::vector<ChannelId> extra_ej_;      ///< per extra endpoint
};

}  // namespace mcs::topo
