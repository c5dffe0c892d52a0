#include "fault/chaos.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace sg::fault {

namespace {

/// True when the minority side of partition mask `m` (fewer hosts;
/// tie goes to side A, matching FaultEvent::host_mask semantics on the
/// equal-devices-per-host topologies the harness uses) contains host 0.
bool minority_has_host0(std::uint64_t m, int num_hosts) {
  const int pa = std::popcount(m);
  const std::uint64_t minority =
      pa <= num_hosts - pa ? m : (~m & all_hosts_mask(num_hosts));
  return (minority & 1ULL) != 0;
}

/// Nonempty proper subset of the first `num_hosts` host bits whose
/// minority side excludes host 0: a partition that outlasts detection
/// evicts its minority side, and keeping host 0 on the majority
/// guarantees every generated plan leaves survivors to re-home onto —
/// even when several partition windows overlap.
std::uint64_t random_side_mask(sim::Rng& rng, int num_hosts) {
  const std::uint64_t all = all_hosts_mask(num_hosts);
  std::uint64_t m = 0;
  do {
    m = rng.next() & all;
  } while (m == 0 || m == all || minority_has_host0(m, num_hosts));
  return m;
}

/// The kinds random plans draw from, in draw order, with the smallest
/// cluster each is drawn on (a loss never picks device 0).
struct ChaosKind {
  FaultKind kind;
  int min_devices = 0;
  int min_hosts = 0;
};
constexpr ChaosKind kChaosOrder[] = {
    {FaultKind::kMessageDrop},       {FaultKind::kMsgCorrupt},
    {FaultKind::kMsgDuplicate},      {FaultKind::kMsgReorder},
    {FaultKind::kNetPartition, 0, 2}, {FaultKind::kStraggler, 1, 0},
    {FaultKind::kDeviceLoss, 2, 0},   {FaultKind::kDeviceDegrade, 2, 0},
    {FaultKind::kLinkDegrade, 0, 2},  {FaultKind::kMemoryPressure, 2, 0},
};

/// Probability cap for drop/corrupt/duplicate/reorder events.
constexpr double kMaxAnomalyProb = 0.3;

FaultPlan generate(std::uint64_t stream, std::uint64_t plan_seed,
                   const ChaosSpec& spec) {
  sim::Rng rng(stream ^ 0x5347434853ULL);  // "SGCHS"
  FaultPlan plan;
  plan.seed = plan_seed;

  std::vector<FaultKind> kinds;
  std::size_t drawable = 0;
  for (const ChaosKind& c : kChaosOrder) {
    if (!spec.kinds.contains(c.kind)) continue;
    ++drawable;
    if (spec.num_devices >= c.min_devices && spec.num_hosts >= c.min_hosts) {
      kinds.push_back(c.kind);
    }
  }
  if (drawable != spec.kinds.size()) {
    throw std::invalid_argument("chaos: ChaosSpec::kinds names a kind "
                                "random plans never draw");
  }
  if (kinds.empty()) return plan;

  const int lo = std::max(spec.min_events, 0);
  const int hi = std::max(spec.max_events, lo);
  const int n =
      lo + static_cast<int>(rng.bounded(static_cast<std::uint64_t>(
               hi - lo + 1)));
  const double h = std::max(spec.horizon.seconds(), 1e-9);
  // Each draw is its own statement: the order in which a call's
  // arguments are evaluated is up to the compiler, and every compiler
  // must build the same plan for a seed.
  const auto draw = [&](int count) {
    return static_cast<int>(rng.bounded(static_cast<std::uint64_t>(count)));
  };
  for (int i = 0; i < n; ++i) {
    const FaultKind k = kinds[rng.bounded(kinds.size())];
    const sim::SimTime at{h * 0.8 * rng.uniform()};
    // Windows cover 10-60% of the horizon: long enough to overlap real
    // traffic, short enough that partitions usually heal mid-run.
    const sim::SimTime dur{h * (0.1 + 0.5 * rng.uniform())};
    const double prob = kMaxAnomalyProb * (0.2 + 0.8 * rng.uniform());
    switch (k) {
      case FaultKind::kMessageDrop:
        plan.drop_messages(prob, at, dur);
        break;
      case FaultKind::kMsgCorrupt:
        plan.corrupt_messages(prob, at, dur);
        break;
      case FaultKind::kMsgDuplicate:
        plan.duplicate_messages(prob, at, dur);
        break;
      case FaultKind::kMsgReorder:
        plan.reorder_messages(prob, at, dur);
        break;
      case FaultKind::kNetPartition:
        plan.partition_hosts(random_side_mask(rng, spec.num_hosts), at, dur);
        break;
      case FaultKind::kStraggler: {
        const double slowdown = 1.5 + 3.0 * rng.uniform();
        plan.straggle(draw(spec.num_devices), at, dur, slowdown);
        break;
      }
      case FaultKind::kDeviceLoss: {
        // Late in the run, and never device 0 (keep a survivor with
        // the conventional default source / master tie-breaks).
        const sim::SimTime late{h * (0.3 + 0.5 * rng.uniform())};
        plan.lose_device(1 + draw(spec.num_devices - 1), late);
        break;
      }
      case FaultKind::kDeviceDegrade:
      case FaultKind::kMemoryPressure: {
        // Gray failures must be long and strong to be worth mitigating:
        // the window starts early and covers 40-80% of the horizon, a
        // slowdown is well past any straggler the detector tolerates,
        // and half the windows ramp in/out so onset detection latency
        // is exercised. Ramps stay within the window by construction.
        const sim::SimTime gat{h * 0.3 * rng.uniform()};
        const sim::SimTime gdur{h * (0.4 + 0.4 * rng.uniform())};
        const bool ramped = (rng.next() & 1ULL) != 0;
        const sim::SimTime ramp =
            ramped ? gdur * (0.05 + 0.10 * rng.uniform())
                   : sim::SimTime::zero();
        const bool slow = k == FaultKind::kDeviceDegrade;
        const double severity =
            slow ? 4.0 + 4.0 * rng.uniform() : 0.3 + 0.6 * rng.uniform();
        const int device = draw(spec.num_devices);
        if (slow) {
          plan.degrade_device(device, gat, gdur, severity, ramp, ramp);
        } else {
          plan.pressure_memory(device, gat, gdur, severity, ramp, ramp);
        }
        break;
      }
      case FaultKind::kLinkDegrade: {
        const int host = draw(spec.num_hosts);
        int peer = draw(spec.num_hosts - 1);
        if (peer >= host) ++peer;
        const double latency = 1.0 + 3.0 * rng.uniform();
        const double slowdown = 2.0 + 4.0 * rng.uniform();
        const sim::SimTime ldur{h * (0.4 + 0.4 * rng.uniform())};
        const sim::SimTime lat{h * 0.3 * rng.uniform()};
        plan.degrade_link(host, peer, lat, ldur, slowdown, latency);
        break;
      }
      default:
        break;
    }
  }
  return plan;
}

}  // namespace

FaultPlan random_plan(std::uint64_t seed, const ChaosSpec& spec) {
  // Random plans are valid by construction except for rare structural
  // collisions (identical overlapping windows, a device lost twice);
  // regenerate from a bumped stream rather than emitting a plan the
  // engine would reject at startup.
  for (std::uint64_t bump = 0; bump < 64; ++bump) {
    FaultPlan p = generate(seed + (bump << 48), seed, spec);
    if (p.validate(spec.num_devices, spec.num_hosts).empty()) return p;
  }
  throw std::runtime_error(
      "chaos: could not generate a valid plan for seed " +
      std::to_string(seed) + " within the given ChaosSpec");
}

namespace {

void write_member(obs::JsonWriter& w, const char* key, FaultKind k) {
  w.kv(key, to_string(k));
}
void write_member(obs::JsonWriter& w, const char* key, sim::SimTime t) {
  w.kv(key, t.seconds());
}
template <typename T>
void write_member(obs::JsonWriter& w, const char* key, T v) {
  w.kv(key, v);
}

void read_member(obs::JsonReader& r, const char* key, bool, FaultKind& k) {
  const std::string name = r.string(key);
  if (!fault_kind_from_string(name, k)) r.fail("unknown kind", name);
}
void read_member(obs::JsonReader& r, const char* key, bool required,
                 sim::SimTime& t) {
  t = sim::SimTime{
      r.number(key, required ? std::nullopt : std::optional(t.seconds()))};
}
void read_member(obs::JsonReader& r, const char* key, bool, double& d) {
  d = r.number(key, d);
}
template <typename T>
void read_member(obs::JsonReader& r, const char* key, bool, T& v) {
  v = r.integer<T>(key, v);
}

}  // namespace

void write_plan_json(obs::JsonWriter& w, const FaultPlan& plan) {
  w.begin_object();
  w.kv("seed", plan.seed);
  w.key("events").begin_array();
  const FaultEvent dflt{};
  for (const FaultEvent& e : plan.events) {
    w.begin_object();
    for_each_event_member([&](const char* key, auto FaultEvent::*m,
                              bool required) {
      if (required || e.*m != dflt.*m) write_member(w, key, e.*m);
    });
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string plan_to_json(const FaultPlan& plan) {
  obs::JsonWriter w;
  write_plan_json(w, plan);
  return w.take();
}

FaultPlan plan_from_json(const obs::JsonValue& v) {
  obs::JsonReader doc(v, "fault plan");
  FaultPlan plan;
  plan.seed = doc.integer<std::uint64_t>("seed");
  const obs::JsonValue* events =
      doc.get("events", obs::JsonValue::Kind::kArray, true);
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    obs::JsonReader ev(events->array[i],
                       "fault plan: event " + std::to_string(i));
    FaultEvent e;
    for_each_event_member([&](const char* key, auto FaultEvent::*m,
                              bool required) {
      read_member(ev, key, required, e.*m);
    });
    ev.reject_unread();
    plan.events.push_back(e);
  }
  doc.reject_unread();
  return plan;
}

FaultPlan parse_plan(std::string_view text) {
  return plan_from_json(obs::parse_json(text));
}

FaultPlan shrink_plan(const FaultPlan& failing,
                      const std::function<bool(const FaultPlan&)>& fails,
                      ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  FaultPlan best = failing;
  bool progress = true;
  while (progress) {
    progress = false;
    // Pass 1: drop events one at a time (from the back, so earlier
    // indices stay valid across erases within the pass).
    for (std::size_t i = best.events.size(); i-- > 0;) {
      FaultPlan cand = best;
      cand.events.erase(cand.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
      ++st.probes;
      if (fails(cand)) {
        best = std::move(cand);
        ++st.removed_events;
        progress = true;
      }
    }
    // Pass 2: halve the windows that remain (floor at 1us — below that
    // the window is effectively a point and halving churns forever).
    for (std::size_t i = 0; i < best.events.size(); ++i) {
      if (best.events[i].duration <= sim::SimTime::micros(1.0)) continue;
      FaultPlan cand = best;
      cand.events[i].duration = cand.events[i].duration * 0.5;
      // Keep ramps inside the halved window (validate() rejects
      // onset + recovery > duration, and a reproducer must stay valid).
      cand.events[i].onset = cand.events[i].onset * 0.5;
      cand.events[i].recovery = cand.events[i].recovery * 0.5;
      ++st.probes;
      if (fails(cand)) {
        best = std::move(cand);
        ++st.narrowed_windows;
        progress = true;
      }
    }
  }
  return best;
}

}  // namespace sg::fault
