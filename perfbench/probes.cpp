#include "probes.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bus/bus_lib.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "drcf/drcf_lib.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "service/protocol.hpp"

namespace perfbench {

using namespace adriatic;
using namespace adriatic::kern::literals;

namespace {

constexpr usize kBurstWords = 64;   // DSE frames and fetch chunks
constexpr u64 kContextWords = 64;   // fault-point configuration contexts

/// Wall seconds spent in `fn`.
double timed(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("probe check failed: ") + what);
}

/// A context body for the DRCF probes: a 16-word register window whose
/// reads return the offset.
class StubSlave : public kern::Module, public bus::BusSlaveIf {
 public:
  StubSlave(kern::Object& parent, std::string name, bus::addr_t low)
      : Module(parent, std::move(name)), low_(low) {}
  [[nodiscard]] bus::addr_t get_low_add() const override { return low_; }
  [[nodiscard]] bus::addr_t get_high_add() const override { return low_ + 15; }
  bool read(bus::addr_t add, bus::word* data) override {
    *data = static_cast<bus::word>(add - low_);
    return true;
  }
  bool write(bus::addr_t, bus::word*) override { return true; }

 private:
  bus::addr_t low_;
};

// -- kernel ------------------------------------------------------------------

/// kern::Fiber resume -> yield -> back, per round trip.
double fiber_switch_ns() {
  constexpr u64 kTrips = 30'000;
  bool stop = false;
  u64 trips = 0;
  kern::Fiber f([&] {
    while (!stop) {
      ++trips;
      kern::Fiber::yield();
    }
  });
  const double s = timed([&] {
    for (u64 i = 0; i < kTrips; ++i) f.resume();
  });
  stop = true;
  f.resume();
  require(f.finished() && trips == kTrips, "fiber round trips");
  return s * 1e9 / kTrips;
}

/// Two thread processes ping-ponging delta notifications, per round trip.
double notify_wait_ns() {
  constexpr u64 kTrips = 10'000;
  kern::Simulation sim;
  kern::Module top(sim, "top");
  kern::Event ping(sim, "ping"), pong(sim, "pong");
  u64 trips = 0;
  top.spawn_thread("a", [&] {
    for (u64 i = 0; i < kTrips; ++i) {
      ping.notify_delta();
      kern::wait(pong);
    }
  });
  top.spawn_thread("b", [&] {
    for (;;) {
      kern::wait(ping);
      ++trips;
      pong.notify_delta();
    }
  });
  const double s = timed([&] { sim.run(); });
  require(trips == kTrips, "notify/wait round trips");
  return s * 1e9 / kTrips;
}

/// One thread process waiting on simulated time, per wait.
double timed_wait_ns() {
  constexpr u64 kWaits = 20'000;
  kern::Simulation sim;
  kern::Module top(sim, "top");
  u64 wakes = 0;
  top.spawn_thread("t", [&] {
    for (u64 i = 0; i < kWaits; ++i) {
      kern::wait(10_ns);
      ++wakes;
    }
  });
  const double s = timed([&] { sim.run(); });
  require(wakes == kWaits, "timed waits");
  return s * 1e9 / kWaits;
}

// -- bus ---------------------------------------------------------------------

/// 64-word burst reads from a memory on a Bus, per word moved. `loose`
/// selects the loosely-timed direct path; `dmi` lets it use the memory's
/// DMI grant instead of per-word slave calls.
double bus_word_ns(bool loose, bool dmi, u64 bursts) {
  kern::Simulation sim;
  sim.set_timing_mode(loose ? kern::TimingMode::kLoose
                            : kern::TimingMode::kTimed);
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory ram(top, "ram", 0, 4096);
  std::vector<bus::word> init(4096, 7);
  ram.load(0, init);
  ram.set_dmi_enabled(dmi);
  b.bind_slave(ram);
  u64 sum = 0;
  top.spawn_thread("master", [&] {
    std::vector<bus::word> buf(kBurstWords);
    for (u64 i = 0; i < bursts; ++i) {
      const auto add = static_cast<bus::addr_t>((i * kBurstWords) % 4096);
      require(b.burst_read(add, buf, 0) == bus::BusStatus::kOk, "bus burst");
      sum += static_cast<u64>(buf[0]);
    }
  });
  const double s = timed([&] { sim.run(); });
  require(sum == 7 * bursts, "bus burst data");
  const auto& st = b.stats();
  if (!loose) {
    require(st.direct_calls == 0, "arbitrated path");
  } else {
    require(st.direct_calls > 0, "direct path");
    require(st.dmi_words == (dmi ? bursts * kBurstWords : 0), "dmi words");
  }
  return s * 1e9 / static_cast<double>(bursts * kBurstWords);
}

// -- memory ------------------------------------------------------------------

/// Memory::read called directly (the per-word slave path), per word.
double memory_read_word_ns() {
  constexpr u64 kReads = 2'000'000;
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory ram(top, "ram", 0x1000, 0x8000);
  std::vector<bus::word> init(0x8000, 3);
  ram.load(0x1000, init);
  u64 sum = 0;
  const double s = timed([&] {
    bus::word w = 0;
    for (u64 i = 0; i < kReads; ++i) {
      ram.read(static_cast<bus::addr_t>(0x1000 + (i & 0x7fff)), &w);
      sum += static_cast<u64>(w);
    }
  });
  require(sum == 3 * kReads, "memory reads");
  return s * 1e9 / kReads;
}

/// DirectLink::burst_read in timed mode (per-word link wait + Memory::read,
/// the dedicated-link DSE points' configuration path), per word.
double memory_burst_word_ns() {
  constexpr u64 kBursts = 300;
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory cfg(top, "cfg", 0x100000, 4096);
  std::vector<bus::word> init(4096, 5);
  cfg.load(0x100000, init);
  bus::DirectLink link(top, "link", 10_ns);
  link.bind_slave(cfg);
  u64 sum = 0;
  top.spawn_thread("fetch", [&] {
    std::vector<bus::word> buf(kBurstWords);
    for (u64 i = 0; i < kBursts; ++i) {
      const auto add =
          static_cast<bus::addr_t>(0x100000 + (i * kBurstWords) % 4096);
      require(link.burst_read(add, buf, 0) == bus::BusStatus::kOk, "link");
      sum += static_cast<u64>(buf[kBurstWords - 1]);
    }
  });
  const double s = timed([&] { sim.run(); });
  require(sum == 5 * kBursts, "link burst data");
  return s * 1e9 / static_cast<double>(kBursts * kBurstWords);
}

/// First write into a page shared with an interned image, per split.
double memory_cow_split_us() {
  constexpr usize kPages = 16;
  constexpr usize kStores = 32;
  std::vector<bus::word> bits(kPages * mem::kPageWords);
  for (usize i = 0; i < bits.size(); ++i)
    bits[i] = static_cast<bus::word>(0x5EED0000u + i);
  const auto img = mem::ImageRegistry::instance().intern(bits);
  kern::Simulation sim;
  kern::Module top(sim, "top");
  std::vector<std::unique_ptr<mem::Memory>> stores;
  for (usize k = 0; k < kStores; ++k) {
    std::string name = "store";
    name += std::to_string(k);
    stores.push_back(std::make_unique<mem::Memory>(top, name, 0,
                                                   kPages * mem::kPageWords));
    stores.back()->attach_image(img, 0);
  }
  const double s = timed([&] {
    for (auto& m : stores)
      for (usize p = 0; p < kPages; ++p)
        m->poke(static_cast<bus::addr_t>(p * mem::kPageWords), 1);
  });
  u64 splits = 0;
  for (const auto& m : stores) splits += m->backing().stats().cow_splits;
  require(splits == kPages * kStores, "cow splits");
  return s * 1e6 / static_cast<double>(splits);
}

// -- drcf --------------------------------------------------------------------

/// Bus + configuration memory + two 64-word stub contexts in one DRCF.
struct DrcfRig {
  explicit DrcfRig(kern::TimingMode mode) {
    sim.set_timing_mode(mode);
    drcf::DrcfConfig dc;
    dc.technology = drcf::varicore_like();
    dc.technology.per_switch_overhead = kern::Time::zero();
    dc.slots = 1;
    fabric = std::make_unique<drcf::Drcf>(top, "drcf", dc);
    for (usize c = 0; c < 2; ++c) {
      ctx.push_back(std::make_unique<StubSlave>(
          top, "ctx" + std::to_string(c),
          static_cast<bus::addr_t>(0x100 + c * 0x100)));
      fabric->add_context(
          *ctx.back(),
          {.config_address = static_cast<bus::addr_t>(0x100000 + c * kContextWords),
           .size_words = kContextWords});
    }
    sys_bus.bind_slave(cfg_mem);
    sys_bus.bind_slave(*fabric);
    fabric->mst_port.bind(sys_bus);
  }
  kern::Simulation sim;
  kern::Module top{sim, "top"};
  bus::Bus sys_bus{top, "bus"};
  mem::Memory cfg_mem{top, "cfg_mem", 0x100000, 1024};
  std::vector<std::unique_ptr<StubSlave>> ctx;
  std::unique_ptr<drcf::Drcf> fabric;
};

/// Timed ping-pong between two contexts on a one-slot fabric: every access
/// reconfigures. Host time per configuration word fetched.
double drcf_fetch_word_ns() {
  constexpr u64 kSwitches = 300;
  DrcfRig rig(kern::TimingMode::kTimed);
  rig.top.spawn_thread("driver", [&] {
    bus::word w = 0;
    for (u64 i = 0; i < kSwitches; ++i)
      rig.sys_bus.read(static_cast<bus::addr_t>(0x100 + (i % 2) * 0x100), &w);
  });
  const double s = timed([&] { rig.sim.run(); });
  const u64 words = rig.fabric->stats().config_words_fetched;
  require(words == kSwitches * kContextWords, "drcf fetched words");
  return s * 1e9 / static_cast<double>(words);
}

/// Loosely-timed reads of a resident context: the DRCF forwarding path,
/// per forwarded access.
double drcf_forward_ns() {
  constexpr u64 kReads = 100'000;
  DrcfRig rig(kern::TimingMode::kLoose);
  u64 sum = 0;
  rig.top.spawn_thread("driver", [&] {
    bus::word w = 0;
    rig.sys_bus.read(0x100, &w);  // load context 0 once
    for (u64 i = 0; i < kReads; ++i) {
      rig.sys_bus.read(static_cast<bus::addr_t>(0x100 + (i & 0xf)), &w);
      sum += static_cast<u64>(w);
    }
  });
  const double s = timed([&] { rig.sim.run(); });
  require(rig.fabric->stats().switches == 1, "drcf resident context");
  require(sum == (kReads / 16) * 120, "drcf forwarded data");
  return s * 1e9 / kReads;
}

// -- campaign and service ----------------------------------------------------

double journal_append_us(const std::string& dir,
                         const campaign::JobStats& sample, int rep) {
  constexpr usize kAppends = 100;
  const auto journal = campaign::CampaignJournal::create(
      dir + "/probe" + std::to_string(rep) + ".wal", "perfbench");
  require(journal != nullptr, "journal create");
  campaign::JobStats s = sample;
  const double t = timed([&] {
    for (usize i = 0; i < kAppends; ++i) {
      s.index = i;
      journal->record_done(s);
    }
  });
  return t * 1e6 / kAppends;
}

struct CacheTimes {
  double store_us = 0;
  double lookup_us = 0;
};

CacheTimes cache_times(const std::string& dir, const campaign::JobStats& sample,
                       int rep) {
  constexpr usize kStores = 100;
  constexpr usize kLookups = 20'000;
  const auto cache = campaign::ResultCache::open(
      dir + "/probe" + std::to_string(rep) + ".cache");
  require(cache != nullptr, "cache open");
  CacheTimes out;
  out.store_us = timed([&] {
                   for (usize i = 0; i < kStores; ++i)
                     cache->store(campaign::spec_hash(sample.label, i), sample);
                 }) *
                 1e6 / kStores;
  usize hits = 0;
  out.lookup_us = timed([&] {
                    for (usize i = 0; i < kLookups; ++i)
                      hits += cache->lookup(campaign::spec_hash(
                                  sample.label, i % kStores))
                                  .has_value();
                  }) *
                  1e6 / kLookups;
  require(hits == kLookups, "cache lookups");
  return out;
}

/// Encodes one RESULT frame and parses it back, per frame.
double codec_us(const campaign::JobStats& sample) {
  constexpr usize kFrames = 5'000;
  usize ok = 0;
  const double t = timed([&] {
    for (usize i = 0; i < kFrames; ++i) {
      std::string line = service::encode_result(i + 1, 0xABCDEFull, sample);
      line.pop_back();  // the newline framing
      const auto ev = service::parse_wire_line(line);
      if (!ev.line.has_value()) continue;
      const auto resp = service::to_response(*ev.line);
      ok += resp.response.has_value() &&
            resp.response->stats.label == sample.label;
    }
  });
  require(ok == kFrames, "codec round trips");
  return t * 1e6 / kFrames;
}

}  // namespace

void run_layer_probes(const std::string& scratch_dir,
                      const campaign::JobStats& sample, int reps,
                      Metrics& out) {
  std::map<std::string, std::vector<double>> samples;
  for (int r = 0; r < reps; ++r) {
    samples["kernel.fiber_switch_ns"].push_back(fiber_switch_ns());
    samples["kernel.notify_wait_ns"].push_back(notify_wait_ns());
    samples["kernel.timed_wait_ns"].push_back(timed_wait_ns());
    samples["bus.word_ns.arbitrated"].push_back(bus_word_ns(false, true, 300));
    samples["bus.word_ns.direct"].push_back(bus_word_ns(true, false, 4'000));
    samples["bus.dmi_word_ns"].push_back(bus_word_ns(true, true, 40'000));
    samples["memory.read_word_ns"].push_back(memory_read_word_ns());
    samples["memory.burst_word_ns"].push_back(memory_burst_word_ns());
    samples["memory.cow_split_us"].push_back(memory_cow_split_us());
    samples["drcf.fetch_word_ns"].push_back(drcf_fetch_word_ns());
    samples["drcf.forward_ns"].push_back(drcf_forward_ns());
    samples["campaign.journal_append_us"].push_back(
        journal_append_us(scratch_dir, sample, r));
    const auto c = cache_times(scratch_dir, sample, r);
    samples["campaign.cache_store_us"].push_back(c.store_us);
    samples["campaign.cache_lookup_us"].push_back(c.lookup_us);
    samples["service.codec_us"].push_back(codec_us(sample));
  }
  for (auto& [name, v] : samples) {
    const std::string unit = name.find("_ns") != std::string::npos ? "ns" : "us";
    out[name] = {median(v), unit};
  }
}

}  // namespace perfbench
