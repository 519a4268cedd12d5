#include "topology/fat_tree.hpp"

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::topo {

FatTree::FatTree(TreeShape shape) : shape_(shape) {
  shape_.validate();
  endpoints_ = static_cast<EndpointId>(shape_.node_count());
  // k^e for e in [0, n]; validate() bounds 2 * k^n, so none overflows.
  k_pow_.assign(1, 1);
  for (int e = 1; e <= shape_.n; ++e) k_pow_.push_back(k_pow_.back() * k());
  build();
}

SwitchId FatTree::switch_id(int level, std::int32_t group,
                            std::int32_t sigma) const {
  const std::int64_t sigma_count = k_pow_[static_cast<std::size_t>(level - 1)];
  return static_cast<SwitchId>(level_offset_[static_cast<std::size_t>(level)] +
                               group * sigma_count + sigma);
}

void FatTree::build() {
  const int n = shape_.n;
  const int kk = shape_.k();

  // Switch tables, level by level.
  level_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::int64_t offset = 0;
  for (int level = 1; level <= n; ++level) {
    level_offset_[static_cast<std::size_t>(level)] = offset;
    const std::int64_t groups =
        level == n ? 1 : 2 * k_pow_[static_cast<std::size_t>(n - level)];
    const std::int64_t sigmas = k_pow_[static_cast<std::size_t>(level - 1)];
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t s = 0; s < sigmas; ++s) {
        switch_level_.push_back(static_cast<std::int8_t>(level));
        switch_group_.push_back(static_cast<std::int32_t>(g));
        switch_sigma_.push_back(static_cast<std::int32_t>(s));
      }
    }
    offset += groups * sigmas;
  }
  MCS_ENSURES(offset == shape_.switch_count());

  up_first_.assign(switch_level_.size(), -1);
  down_first_.assign(switch_level_.size(), -1);

  // Injection / ejection channels for regular endpoints.
  inj_channel_.resize(static_cast<std::size_t>(endpoints_));
  ej_channel_.resize(static_cast<std::size_t>(endpoints_));
  for (EndpointId e = 0; e < endpoints_; ++e) {
    const SwitchId leaf = leaf_switch_of(e);
    const auto port = static_cast<std::int16_t>(digit(e, n) %
                                                (n == 1 ? 2 * kk : kk));
    inj_channel_[static_cast<std::size_t>(e)] =
        static_cast<ChannelId>(channels_.size());
    channels_.push_back(Channel{ChannelKind::kInjection, 0, port, -1, leaf, e});
    ej_channel_[static_cast<std::size_t>(e)] =
        static_cast<ChannelId>(channels_.size());
    channels_.push_back(Channel{ChannelKind::kEjection, 0, port, leaf, -1, e});
  }

  // Switch-to-switch channels: up from every non-root switch, and the
  // matching down channel from the parent.
  for (SwitchId s = 0; s < switch_count(); ++s) {
    const int level = switch_level(s);
    if (level == n) continue;
    const std::int32_t group = switch_group(s);
    const std::int32_t sigma = switch_sigma(s);
    // Parent group: drop the last digit of (p_1 .. p_{n-level}); its range
    // is 2k when it is p_1 (i.e. level == n-1), else k.
    const std::int32_t parent_group =
        level == n - 1 ? 0 : group / kk;
    up_first_[static_cast<std::size_t>(s)] =
        static_cast<ChannelId>(channels_.size());
    for (int u = 0; u < kk; ++u) {
      const SwitchId parent =
          switch_id(level + 1, parent_group, sigma * kk + u);
      channels_.push_back(Channel{ChannelKind::kUp,
                                  static_cast<std::int16_t>(level),
                                  static_cast<std::int16_t>(u), s, parent,
                                  -1});
    }
  }
  for (SwitchId s = 0; s < switch_count(); ++s) {
    const int level = switch_level(s);
    if (level == 1) continue;
    const std::int32_t group = switch_group(s);
    const std::int32_t sigma = switch_sigma(s);
    const int ports = level == n ? 2 * kk : kk;
    down_first_[static_cast<std::size_t>(s)] =
        static_cast<ChannelId>(channels_.size());
    for (int c = 0; c < ports; ++c) {
      const std::int32_t child_group = level == n ? c : group * kk + c;
      const SwitchId child = switch_id(level - 1, child_group, sigma / kk);
      channels_.push_back(Channel{ChannelKind::kDown,
                                  static_cast<std::int16_t>(level - 1),
                                  static_cast<std::int16_t>(c), s, child, -1});
    }
  }
}

EndpointId FatTree::attach_extra_endpoint() {
  const EndpointId id = endpoints_ + extras_;
  const SwitchId leaf = switch_id(1, 0, 0);
  extra_inj_.push_back(static_cast<ChannelId>(channels_.size()));
  channels_.push_back(Channel{ChannelKind::kInjection, 0,
                              static_cast<std::int16_t>(-1), -1, leaf, id});
  extra_ej_.push_back(static_cast<ChannelId>(channels_.size()));
  channels_.push_back(Channel{ChannelKind::kEjection, 0,
                              static_cast<std::int16_t>(-1), leaf, -1, id});
  ++extras_;
  return id;
}

int FatTree::digit(EndpointId e, int position) const {
  MCS_EXPECTS(position >= 1 && position <= shape_.n);
  if (e >= endpoints_) return 0;  // extra endpoints carry address 0...0
  const std::int64_t div =
      k_pow_[static_cast<std::size_t>(shape_.n - position)];
  const std::int64_t radix = position == 1 ? 2 * shape_.k() : shape_.k();
  return static_cast<int>((e / div) % radix);
}

SwitchId FatTree::leaf_switch_of(EndpointId e) const {
  MCS_EXPECTS(e >= 0 && e < total_endpoints());
  if (e >= endpoints_ || shape_.n == 1) return switch_id(1, 0, 0);
  return switch_id(1, static_cast<std::int32_t>(e / shape_.k()), 0);
}

ChannelId FatTree::injection_channel(EndpointId e) const {
  MCS_EXPECTS(e >= 0 && e < total_endpoints());
  if (e >= endpoints_)
    return extra_inj_[static_cast<std::size_t>(e - endpoints_)];
  return inj_channel_[static_cast<std::size_t>(e)];
}

ChannelId FatTree::ejection_channel(EndpointId e) const {
  MCS_EXPECTS(e >= 0 && e < total_endpoints());
  if (e >= endpoints_)
    return extra_ej_[static_cast<std::size_t>(e - endpoints_)];
  return ej_channel_[static_cast<std::size_t>(e)];
}

ChannelId FatTree::up_channel(SwitchId s, int u) const {
  const ChannelId first = up_first_[static_cast<std::size_t>(s)];
  MCS_EXPECTS(first >= 0 && u >= 0 && u < shape_.k());
  return first + u;
}

ChannelId FatTree::down_channel(SwitchId s, int c) const {
  const ChannelId first = down_first_[static_cast<std::size_t>(s)];
  MCS_EXPECTS(first >= 0 && c >= 0 && c < down_port_count(s));
  return first + c;
}

int FatTree::down_port_count(SwitchId s) const {
  return switch_level(s) == shape_.n ? 2 * shape_.k() : shape_.k();
}

int FatTree::nca_level(EndpointId src, EndpointId dst) const {
  MCS_EXPECTS(src >= 0 && src < total_endpoints());
  MCS_EXPECTS(dst >= 0 && dst < total_endpoints());
  MCS_EXPECTS(src != dst);
  int common = 0;
  while (common < shape_.n - 1 &&
         digit(src, common + 1) == digit(dst, common + 1))
    ++common;
  return shape_.n - common;
}

int FatTree::route_into(EndpointId src, EndpointId dst,
                        std::vector<ChannelId>& out) const {
  const int j = nca_level(src, dst);
  const int kk = shape_.k();
  const std::size_t start = out.size();

  out.push_back(injection_channel(src));
  SwitchId cur = leaf_switch_of(src);
  // Ascend to the level-j NCA, picking up-ports from destination digits
  // (d-mod-k): all traffic to `dst` converges onto one switch per level.
  for (int level = 1; level < j; ++level) {
    const int u = digit(dst, shape_.n - level) % kk;
    const ChannelId ch = up_channel(cur, u);
    out.push_back(ch);
    cur = channels_[static_cast<std::size_t>(ch)].dst_switch;
  }
  // Descend along the unique downward path.
  for (int level = j; level >= 2; --level) {
    const int c = digit(dst, shape_.n - level + 1);
    const ChannelId ch = down_channel(cur, c);
    out.push_back(ch);
    cur = channels_[static_cast<std::size_t>(ch)].dst_switch;
  }
  MCS_ASSERT(cur == leaf_switch_of(dst));
  out.push_back(ejection_channel(dst));

  const int added = static_cast<int>(out.size() - start);
  MCS_ENSURES(added == 2 * j);
  return added;
}

}  // namespace mcs::topo
