#include "src/topology/topology.hpp"

#include <algorithm>

namespace xpl::topology {

std::uint32_t Topology::add_switch(std::string name) {
  const auto id = static_cast<std::uint32_t>(switches_.size());
  if (name.empty()) name = "sw" + std::to_string(id);
  switches_.push_back(SwitchNode{std::move(name), -1, -1});
  ports_.emplace_back();
  return id;
}

std::uint32_t Topology::add_link(std::uint32_t from, std::uint32_t to,
                                 std::size_t stages, std::uint8_t vc_class,
                                 bool dateline) {
  require(from < switches_.size() && to < switches_.size(),
          "Topology::add_link: switch id out of range");
  require(from != to, "Topology::add_link: self-loops are not allowed");
  const auto id = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{from, to, stages, vc_class, dateline});
  ports_[from].out_links.push_back(id);
  ports_[to].in_links.push_back(id);
  return id;
}

void Topology::add_duplex(std::uint32_t a, std::uint32_t b,
                          std::size_t stages, std::uint8_t vc_class,
                          bool dateline) {
  add_link(a, b, stages, vc_class, dateline);
  add_link(b, a, stages, vc_class, dateline);
}

bool Topology::has_datelines() const {
  for (const Link& l : links_) {
    if (l.dateline) return true;
  }
  return false;
}

std::uint32_t Topology::attach_initiator(std::uint32_t switch_id,
                                         std::string name) {
  require(switch_id < switches_.size(),
          "Topology::attach_initiator: switch id out of range");
  const auto id = static_cast<std::uint32_t>(nis_.size());
  if (name.empty()) name = "ini" + std::to_string(id);
  nis_.push_back(NiNode{std::move(name), switch_id, /*initiator=*/true});
  ports_[switch_id].nis.push_back(id);
  return id;
}

std::uint32_t Topology::attach_target(std::uint32_t switch_id,
                                      std::string name) {
  require(switch_id < switches_.size(),
          "Topology::attach_target: switch id out of range");
  const auto id = static_cast<std::uint32_t>(nis_.size());
  if (name.empty()) name = "tgt" + std::to_string(id);
  nis_.push_back(NiNode{std::move(name), switch_id, /*initiator=*/false});
  ports_[switch_id].nis.push_back(id);
  return id;
}

const SwitchNode& Topology::switch_node(std::uint32_t id) const {
  require(id < switches_.size(), "Topology: switch id out of range");
  return switches_[id];
}

SwitchNode& Topology::switch_node(std::uint32_t id) {
  require(id < switches_.size(), "Topology: switch id out of range");
  return switches_[id];
}

const Link& Topology::link(std::uint32_t id) const {
  require(id < links_.size(), "Topology: link id out of range");
  return links_[id];
}

void Topology::set_link_stages(std::uint32_t id, std::size_t stages) {
  require(id < links_.size(), "Topology: link id out of range");
  links_[id].stages = stages;
}

const NiNode& Topology::ni(std::uint32_t id) const {
  require(id < nis_.size(), "Topology: NI id out of range");
  return nis_[id];
}

std::vector<std::uint32_t> Topology::initiator_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(nis_.size());
  for (std::uint32_t i = 0; i < nis_.size(); ++i) {
    if (nis_[i].initiator) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> Topology::target_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(nis_.size());
  for (std::uint32_t i = 0; i < nis_.size(); ++i) {
    if (!nis_[i].initiator) out.push_back(i);
  }
  return out;
}

const Topology::SwitchPorts& Topology::ports_of(
    std::uint32_t switch_id) const {
  require(switch_id < switches_.size(), "Topology: switch id out of range");
  return ports_[switch_id];
}

std::size_t Topology::num_inputs(std::uint32_t switch_id) const {
  const SwitchPorts& p = ports_of(switch_id);
  return p.in_links.size() + p.nis.size();
}

std::size_t Topology::num_outputs(std::uint32_t switch_id) const {
  const SwitchPorts& p = ports_of(switch_id);
  return p.out_links.size() + p.nis.size();
}

PortRef Topology::output_port(std::uint32_t switch_id, std::size_t i) const {
  const SwitchPorts& p = ports_of(switch_id);
  require(i < p.out_links.size() + p.nis.size(),
          "Topology: output port out of range");
  return i < p.out_links.size()
             ? PortRef{PortRef::Kind::kLink, p.out_links[i]}
             : PortRef{PortRef::Kind::kNi, p.nis[i - p.out_links.size()]};
}

const std::vector<std::uint32_t>& Topology::out_links(
    std::uint32_t switch_id) const {
  return ports_of(switch_id).out_links;
}

namespace {

std::vector<PortRef> port_list(const std::vector<std::uint32_t>& links,
                               const std::vector<std::uint32_t>& nis) {
  std::vector<PortRef> ports;
  ports.reserve(links.size() + nis.size());
  for (const std::uint32_t l : links) {
    ports.push_back(PortRef{PortRef::Kind::kLink, l});
  }
  for (const std::uint32_t n : nis) {
    ports.push_back(PortRef{PortRef::Kind::kNi, n});
  }
  return ports;
}

// Position of `id` in a sorted id list, or npos.
std::size_t position(const std::vector<std::uint32_t>& ids,
                     std::uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id
             ? static_cast<std::size_t>(it - ids.begin())
             : Topology::npos;
}

// Port index of `ref` given the switch's link list for that direction.
std::size_t port_position(const std::vector<std::uint32_t>& links,
                          const std::vector<std::uint32_t>& nis,
                          const PortRef& ref) {
  if (ref.kind == PortRef::Kind::kLink) return position(links, ref.id);
  const std::size_t n = position(nis, ref.id);
  return n == Topology::npos ? n : links.size() + n;
}

}  // namespace

std::vector<PortRef> Topology::input_ports(std::uint32_t switch_id) const {
  const SwitchPorts& p = ports_of(switch_id);
  return port_list(p.in_links, p.nis);
}

std::vector<PortRef> Topology::output_ports(std::uint32_t switch_id) const {
  const SwitchPorts& p = ports_of(switch_id);
  return port_list(p.out_links, p.nis);
}

std::size_t Topology::input_index(std::uint32_t switch_id,
                                  const PortRef& ref) const {
  const SwitchPorts& p = ports_of(switch_id);
  return port_position(p.in_links, p.nis, ref);
}

std::size_t Topology::output_index(std::uint32_t switch_id,
                                   const PortRef& ref) const {
  const SwitchPorts& p = ports_of(switch_id);
  return port_position(p.out_links, p.nis, ref);
}

std::size_t Topology::max_radix_in() const {
  std::size_t radix = 0;
  for (const SwitchPorts& p : ports_) {
    radix = std::max(radix, p.in_links.size() + p.nis.size());
  }
  return radix;
}

std::size_t Topology::max_radix_out() const {
  std::size_t radix = 0;
  for (const SwitchPorts& p : ports_) {
    radix = std::max(radix, p.out_links.size() + p.nis.size());
  }
  return radix;
}

void Topology::validate() const {
  require(!switches_.empty(), "Topology: no switches");
  require(!nis_.empty(), "Topology: no network interfaces");
  for (std::uint32_t s = 0; s < switches_.size(); ++s) {
    if (num_inputs(s) == 0 || num_outputs(s) == 0) {
      throw Error("Topology: switch " + switches_[s].name +
                  " has unused ports");
    }
  }
  // Reachability of every switch from every NI's switch (strong
  // connectivity over the link graph) guarantees routes exist. One DFS
  // per start over the out-link index: O(S * (S + L)).
  const std::size_t n = switches_.size();
  std::vector<bool> seen(n);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    seen.assign(n, false);
    stack.assign(1, start);
    seen[start] = true;
    while (!stack.empty()) {
      const std::uint32_t s = stack.back();
      stack.pop_back();
      for (const std::uint32_t l : ports_[s].out_links) {
        const std::uint32_t to = links_[l].to;
        if (!seen[to]) {
          seen[to] = true;
          stack.push_back(to);
        }
      }
    }
    for (std::uint32_t t = 0; t < n; ++t) {
      if (!seen[t]) {
        throw Error("Topology: switch " + switches_[t].name +
                    " unreachable from " + switches_[start].name);
      }
    }
  }
}

}  // namespace xpl::topology
