#include "src/link/credit.hpp"

#include "src/common/error.hpp"

namespace xpl::link {

CreditSender::CreditSender(LinkWires wires, const ProtocolConfig& config)
    : wires_(wires), config_(config) {
  config_.validate();
  lanes_.resize(config_.vcs);
  for (Lane& lane : lanes_) {
    lane.credits = config_.window;
    lane.buffer.reserve(config_.window);  // can_accept bounds it at window
  }
}

void CreditSender::begin_cycle() {
  XPL_ASSERT(wires_.rev != nullptr);
  const AckBeat beat = wires_.rev->read();
  if (beat.valid) {
    // One valid reverse beat = one credit returned for lane beat.vc
    // (ack/seqno unused).
    XPL_ASSERT(beat.vc < lanes_.size());
    Lane& lane = lanes_[beat.vc];
    XPL_ASSERT(lane.credits < config_.window);
    ++lane.credits;
  }
}

bool CreditSender::can_accept(std::size_t vc) const {
  // Bound the lane's outstanding (staged + sent-but-uncredited) at
  // window, the same occupancy contract as GoBackNSender's per-lane
  // retransmission buffer — so a flow-control comparison measures
  // protocol behaviour, not a doubled per-hop buffer.
  XPL_ASSERT(vc < lanes_.size());
  const Lane& lane = lanes_[vc];
  return lane.buffer.size() + (config_.window - lane.credits) <
         config_.window;
}

void CreditSender::accept(Flit flit) {
  XPL_ASSERT(can_accept(flit.vc));
  // Reliable link: no seqno, no CRC seal — the receiver never checks.
  lanes_[flit.vc].buffer.push_back(std::move(flit));
}

void CreditSender::end_cycle() {
  XPL_ASSERT(wires_.fwd != nullptr);
  // One physical flit per cycle: serve lanes with staged flits
  // round-robin. can_accept keeps each lane's staged count <= its
  // credits, so a staged flit always has a credit to spend.
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const std::size_t v = (next_lane_ + k) % lanes_.size();
    Lane& lane = lanes_[v];
    if (lane.buffer.empty()) continue;
    XPL_ASSERT(lane.credits > 0);
    --lane.credits;
    wires_.fwd->write(FlitBeat{true, std::move(lane.buffer.front())});
    fwd_dirty_ = true;
    lane.buffer.pop_front();
    ++flits_sent_;
    next_lane_ = (v + 1) % lanes_.size();
    return;
  }
  // Credit starvation: nothing staged anywhere, and at least one lane's
  // entire window is parked at the receiver awaiting drain.
  for (const Lane& lane : lanes_) {
    if (lane.credits == 0) {
      ++credit_stalls_;
      break;
    }
  }
  // Write-on-change: drive the wire idle once after the last valid beat.
  if (fwd_dirty_) {
    wires_.fwd->write(FlitBeat{});
    fwd_dirty_ = false;
  }
}

bool CreditSender::gate_idle() const {
  if (fwd_dirty_ || wires_.rev->read().valid) return false;
  for (const Lane& lane : lanes_) {
    if (!lane.buffer.empty()) return false;
  }
  return true;
}

bool CreditSender::stall_pending() const {
  // Mirrors end_cycle's starvation rule: a stall is counted only on
  // cycles where nothing is staged anywhere and some lane sits at zero
  // credits.
  for (const Lane& lane : lanes_) {
    if (!lane.buffer.empty()) return false;
  }
  for (const Lane& lane : lanes_) {
    if (lane.credits == 0) return true;
  }
  return false;
}

std::size_t CreditSender::in_flight() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.buffer.size() + (config_.window - lane.credits);
  }
  return total;
}

CreditReceiver::CreditReceiver(LinkWires wires, const ProtocolConfig& config)
    : wires_(wires), config_(config) {
  config_.validate();
  lanes_.resize(config_.vcs);
  for (auto& lane : lanes_) lane.reserve(config_.window);
}

std::optional<Flit> CreditReceiver::begin_cycle(std::uint32_t can_take_mask) {
  XPL_ASSERT(wires_.fwd != nullptr);
  const FlitBeat& beat = wires_.fwd->read();
  if (beat.valid) {
    // The sender spent one of this lane's credits for the slot; overflow
    // is a protocol wiring bug, not a runtime condition.
    XPL_ASSERT(beat.flit.vc < lanes_.size());
    auto& lane = lanes_[beat.flit.vc];
    XPL_ASSERT(lane.size() < config_.window);
    lane.push_back(beat.flit);
  }
  // Drain at most one flit from a takeable lane, round-robin.
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const std::size_t v = (drain_next_ + k) % lanes_.size();
    auto& lane = lanes_[v];
    if (lane.empty() || (can_take_mask >> v & 1u) == 0) continue;
    Flit flit = std::move(lane.front());
    lane.pop_front();
    pending_credit_ = true;  // slot freed: return exactly one credit
    pending_credit_vc_ = static_cast<std::uint8_t>(v);
    ++flits_accepted_;
    drain_next_ = (v + 1) % lanes_.size();
    return flit;
  }
  return std::nullopt;
}

void CreditReceiver::end_cycle() {
  XPL_ASSERT(wires_.rev != nullptr);
  // Write-on-change: a credit return is always driven; the idle beat is
  // driven once after the last return (then the wire already holds it).
  if (pending_credit_ || rev_dirty_) {
    wires_.rev->write(
        AckBeat{pending_credit_, /*ack=*/true, 0, pending_credit_vc_});
    rev_dirty_ = pending_credit_;
    pending_credit_ = false;
  }
}

std::size_t CreditReceiver::buffered() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane.size();
  return total;
}

}  // namespace xpl::link
