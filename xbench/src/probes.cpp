#include "probes.hpp"

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/link/link.hpp"
#include "src/sim/calendar.hpp"
#include "src/switchlib/switch.hpp"
#include "xbench.hpp"

namespace xbench {
namespace {

using namespace xpl;

constexpr int kTrials = 5;

template <typename Fn>
double median_of_trials(Fn&& trial) {
  std::vector<double> ns;
  for (int t = 0; t < kTrials; ++t) ns.push_back(trial());
  return median(ns);
}

double ns_per(Clock::time_point start, double units) {
  return units > 0 ? seconds_since(start) * 1e9 / units : 0.0;
}

// ------------------------------------------------------------- kernel
class Writer : public sim::Module {
 public:
  explicit Writer(std::vector<sim::Signal<std::uint64_t>*> signals)
      : sim::Module("probe.writer"), signals_(std::move(signals)) {}
  void tick(sim::Kernel& kernel) override {
    const std::uint64_t base = kernel.cycle();
    for (std::size_t i = 0; i < signals_.size(); ++i) {
      signals_[i]->write(base + i);
    }
  }

 private:
  std::vector<sim::Signal<std::uint64_t>*> signals_;
};

double commit_ns(sim::Scheduler scheduler) {
  constexpr std::size_t kSignals = 256;
  constexpr std::uint64_t kCycles = 20000;
  sim::Kernel kernel(scheduler);
  std::vector<sim::Signal<std::uint64_t>*> signals;
  for (std::size_t i = 0; i < kSignals; ++i) {
    signals.push_back(&kernel.make_signal<std::uint64_t>(0));
  }
  Writer writer(std::move(signals));
  kernel.add_module(writer);
  kernel.run(1000);  // warm
  const auto start = Clock::now();
  kernel.run(kCycles);
  return ns_per(start, static_cast<double>(kCycles * kSignals));
}

class Parked : public sim::Module {
 public:
  Parked() : sim::Module("probe.parked") {}
  void tick(sim::Kernel&) override {}
};

double calendar_ns() {
  constexpr std::uint64_t kCycles = 200000;
  constexpr std::size_t kPerCycle = 4;
  std::vector<std::unique_ptr<Parked>> modules;
  for (int i = 0; i < 64; ++i) modules.push_back(std::make_unique<Parked>());
  // Mostly near dues (link beats, slave latencies land on the wheel), one
  // in eight far (driver gaps, overflow heap).
  std::vector<std::uint64_t> deltas;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 64; ++i) {
    deltas.push_back(i % 8 == 7 ? 300 + rng() % 4000 : 1 + rng() % 40);
  }
  sim::WakeCalendar calendar;
  const auto start = Clock::now();
  for (std::uint64_t now = 1; now <= kCycles; ++now) {
    for (std::size_t j = 0; j < kPerCycle; ++j) {
      const std::size_t k = (now * kPerCycle + j) % modules.size();
      calendar.schedule(now + deltas[k], modules[k].get());
    }
    calendar.advance(now);
  }
  return ns_per(start, static_cast<double>(kCycles * kPerCycle));
}

// ------------------------------------------------------------- switch
class Feeder : public sim::Module {
 public:
  Feeder(link::FlowControl flow, link::LinkWires wires,
         const link::ProtocolConfig& proto, std::vector<Flit> stream)
      : sim::Module("probe.feeder"), tx_(flow, wires, proto),
        stream_(std::move(stream)) {}
  void tick(sim::Kernel&) override {
    tx_.begin_cycle();
    const Flit& flit = stream_[next_];
    if (tx_.can_accept(flit.vc)) {
      tx_.accept(flit);
      next_ = (next_ + 1) % stream_.size();
    }
    tx_.end_cycle();
  }

 private:
  link::LinkSender tx_;
  std::vector<Flit> stream_;
  std::size_t next_ = 0;
};

class Drain : public sim::Module {
 public:
  Drain(link::FlowControl flow, link::LinkWires wires,
        const link::ProtocolConfig& proto, std::size_t vcs)
      : sim::Module("probe.drain"), rx_(flow, wires, proto),
        take_all_((1u << vcs) - 1) {}
  void tick(sim::Kernel&) override {
    (void)rx_.begin_cycle(take_all_);
    rx_.end_cycle();
  }

 private:
  link::LinkReceiver rx_;
  std::uint32_t take_all_;
};

Packet probe_packet(const PacketFormat& format, Route route, PacketCmd cmd,
                    std::uint32_t beats, std::uint64_t salt) {
  Packet p;
  p.header.route = std::move(route);
  p.header.cmd = cmd;
  p.header.src = 1;
  p.header.dst = 2;
  p.header.txn_id = static_cast<std::uint32_t>(salt % 4);
  p.header.burst_len = beats == 0 ? 1 : beats;
  p.header.addr = (salt * 8) % 256;
  for (std::uint32_t b = 0; b < beats; ++b) {
    p.beats.emplace_back(format.beat_width, 0xC0DE00 + salt + b);
  }
  return p;
}

double switch_flit_ns(const ProbeConfig& c) {
  constexpr std::uint64_t kCycles = 20000;
  sim::Kernel kernel(c.scheduler);
  link::ProtocolConfig proto = link::ProtocolConfig::for_link(0);
  proto.vcs = c.vcs;
  switchlib::SwitchConfig sc;
  sc.num_inputs = c.radix;
  sc.num_outputs = c.radix;
  sc.flit_width = c.format.flit_width;
  sc.port_bits = c.format.header.port_bits;
  sc.route_bits = c.format.header.route_bits();
  sc.flow = c.flow;
  sc.vcs = c.vcs;
  sc.protocol = proto;

  std::vector<link::LinkWires> in_wires;
  std::vector<link::LinkWires> out_wires;
  std::vector<std::unique_ptr<Feeder>> feeders;
  std::vector<std::unique_ptr<Drain>> drains;
  for (std::size_t i = 0; i < c.radix; ++i) {
    in_wires.push_back(link::LinkWires::make(kernel));
    // Input i sends one 2-beat write to every output in turn, rotating
    // lanes per packet, so all outputs and lanes carry load.
    std::vector<Flit> stream;
    for (std::size_t k = 0; k < c.radix; ++k) {
      const auto out = static_cast<std::uint8_t>((i + k) % c.radix);
      const auto lane = static_cast<std::uint8_t>(k % c.vcs);
      for (Flit f : packetize(probe_packet(c.format, {out}, PacketCmd::kWrite,
                                           2, i * 16 + k),
                              c.format)) {
        f.vc = lane;
        stream.push_back(std::move(f));
      }
    }
    feeders.push_back(std::make_unique<Feeder>(c.flow, in_wires.back(),
                                                proto, std::move(stream)));
  }
  for (std::size_t o = 0; o < c.radix; ++o) {
    out_wires.push_back(link::LinkWires::make(kernel));
    drains.push_back(
        std::make_unique<Drain>(c.flow, out_wires.back(), proto, c.vcs));
  }
  switchlib::Switch dut("probe.switch", sc, in_wires, out_wires);
  for (auto& m : feeders) kernel.add_module(*m);
  kernel.add_module(dut);
  for (auto& m : drains) kernel.add_module(*m);

  kernel.run(1000);  // fill the pipeline
  const std::uint64_t before = dut.flits_switched();
  const auto start = Clock::now();
  kernel.run(kCycles);
  return ns_per(start, static_cast<double>(dut.flits_switched() - before));
}

// --------------------------------------------------------------- link
double link_hop_ns(const ProbeConfig& c) {
  constexpr std::uint64_t kCycles = 200000;
  sim::Kernel kernel;
  const link::LinkWires wires = link::LinkWires::make(kernel);
  link::ProtocolConfig proto = link::ProtocolConfig::for_link(0);
  proto.vcs = c.vcs;
  link::LinkSender tx(c.flow, wires, proto);
  link::LinkReceiver rx(c.flow, wires, proto);
  const std::uint32_t take_all = (1u << c.vcs) - 1;
  BitVector payload(c.format.flit_width);
  for (std::size_t i = 0; i < c.format.flit_width; i += 3) {
    payload.set(i, true);
  }
  std::uint64_t hops = 0;
  std::uint8_t lane = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    tx.begin_cycle();
    if (tx.can_accept(lane)) {
      Flit flit(payload, true, true);
      flit.vc = lane;
      tx.accept(std::move(flit));
      lane = static_cast<std::uint8_t>((lane + 1) % c.vcs);
    }
    tx.end_cycle();
    kernel.step();  // the flit crosses the wire
    if (rx.begin_cycle(take_all)) ++hops;
    rx.end_cycle();
    kernel.step();  // ACK / credit returns
  }
  return ns_per(start, static_cast<double>(hops));
}

// ----------------------------------------------------------------- NI
double ni_txn_ns(const ProbeConfig& c) {
  constexpr std::size_t kTxns = 20000;
  std::mt19937_64 rng(c.seed);
  std::uniform_int_distribution<std::uint32_t> burst(c.min_burst,
                                                     c.max_burst);
  std::bernoulli_distribution is_read(c.read_fraction);
  Route route(c.format.header.max_hops / 2, 1);
  struct Txn {
    Packet request;
    Packet response;  ///< reads only
    bool read = false;
  };
  std::vector<Txn> txns;
  for (std::size_t i = 0; i < 256; ++i) {
    Txn t;
    const std::uint32_t beats = burst(rng);
    t.read = is_read(rng);
    t.request = probe_packet(c.format, route,
                             t.read ? PacketCmd::kRead : PacketCmd::kWrite,
                             t.read ? 0 : beats, i);
    if (t.read) {
      t.response = probe_packet(c.format, route, PacketCmd::kResponse,
                                beats, i + 1);
    }
    txns.push_back(std::move(t));
  }
  Depacketizer depack(c.format);
  std::size_t decoded = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kTxns; ++i) {
    const Txn& t = txns[i % txns.size()];
    for (const Flit& f : packetize(t.request, c.format)) {
      if (depack.push(f)) ++decoded;
    }
    if (t.read) {
      for (const Flit& f : packetize(t.response, c.format)) {
        if (depack.push(f)) ++decoded;
      }
    }
  }
  const double ns = ns_per(start, static_cast<double>(kTxns));
  return decoded >= kTxns ? ns : 0.0;
}

}  // namespace

ProbeResults run_probes(const ProbeConfig& config) {
  ProbeResults r;
  r.commit_ns = median_of_trials([&] { return commit_ns(config.scheduler); });
  r.calendar_ns = median_of_trials([] { return calendar_ns(); });
  r.switch_flit_ns = median_of_trials([&] { return switch_flit_ns(config); });
  r.link_hop_ns = median_of_trials([&] { return link_hop_ns(config); });
  r.ni_txn_ns = median_of_trials([&] { return ni_txn_ns(config); });
  return r;
}

}  // namespace xbench
