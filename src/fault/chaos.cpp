#include "fault/chaos.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
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

void write_plan_json(obs::JsonWriter& w, const FaultPlan& plan) {
  w.begin_object();
  w.kv("seed", plan.seed);
  w.key("events").begin_array();
  for (const FaultEvent& e : plan.events) {
    w.begin_object();
    w.kv("kind", to_string(e.kind));
    w.kv("at_s", e.at.seconds());
    if (e.duration > sim::SimTime::zero()) {
      w.kv("duration_s", e.duration.seconds());
    }
    if (e.device >= 0) w.kv("device", e.device);
    if (e.host >= 0) w.kv("host", e.host);
    if (e.peer_host >= 0) w.kv("peer_host", e.peer_host);
    if (e.severity != 0.0) w.kv("severity", e.severity);
    if (e.host_mask != 0) w.kv("host_mask", e.host_mask);
    // Gray-failure fields only when non-default, so reproducers written
    // before these fields existed stay byte-identical on rewrite.
    if (e.onset > sim::SimTime::zero()) w.kv("onset_s", e.onset.seconds());
    if (e.recovery > sim::SimTime::zero()) {
      w.kv("recovery_s", e.recovery.seconds());
    }
    if (e.latency_factor != 1.0) w.kv("latency_factor", e.latency_factor);
    // SDC fields only when non-default, same compatibility rule.
    if (e.vertex >= 0) w.kv("vertex", e.vertex);
    if (e.bit >= 0) w.kv("bit", e.bit);
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

namespace {

double require_number(const obs::JsonValue& v, const char* key,
                      const char* what) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr || f->kind != obs::JsonValue::Kind::kNumber) {
    throw std::runtime_error(std::string("fault plan: ") + what +
                             " is missing numeric \"" + key + "\"");
  }
  return f->number;
}

double number_or(const obs::JsonValue& v, const char* key, double dflt) {
  const obs::JsonValue* f = v.find(key);
  return f != nullptr ? f->num_or(dflt) : dflt;
}

/// `x` cast to T after checking that it is an integer that fits: plans
/// are read from reproducer files, and casting an out-of-range double
/// is undefined (a fractional one would be silently truncated).
template <typename T>
T checked(double x, const char* key, const std::string& what) {
  if (!(x >= static_cast<double>(std::numeric_limits<T>::min()) &&
        x < std::ldexp(1.0, std::numeric_limits<T>::digits)) ||
      x != std::floor(x)) {
    throw std::runtime_error("fault plan: " + what +
                             " has non-integer or out-of-range \"" + key +
                             "\"");
  }
  return static_cast<T>(x);
}

}  // namespace

FaultPlan plan_from_json(const obs::JsonValue& v) {
  if (!v.is_object()) {
    throw std::runtime_error("fault plan: not a JSON object");
  }
  FaultPlan plan;
  plan.seed =
      checked<std::uint64_t>(require_number(v, "seed", "plan"), "seed", "plan");
  const obs::JsonValue* events = v.find("events");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("fault plan: missing \"events\" array");
  }
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const obs::JsonValue& ev = events->array[i];
    const std::string at = "event " + std::to_string(i);
    if (!ev.is_object()) {
      throw std::runtime_error("fault plan: " + at + " is not an object");
    }
    const obs::JsonValue* kind = ev.find("kind");
    if (kind == nullptr || kind->kind != obs::JsonValue::Kind::kString) {
      throw std::runtime_error("fault plan: " + at +
                               " is missing string \"kind\"");
    }
    FaultEvent e;
    if (!fault_kind_from_string(kind->string, e.kind)) {
      throw std::runtime_error("fault plan: " + at +
                               " has unknown kind \"" + kind->string + "\"");
    }
    e.at = sim::SimTime{require_number(ev, "at_s", at.c_str())};
    e.duration = sim::SimTime{number_or(ev, "duration_s", 0.0)};
    e.device = checked<int>(number_or(ev, "device", -1.0), "device", at);
    e.host = checked<int>(number_or(ev, "host", -1.0), "host", at);
    e.peer_host =
        checked<int>(number_or(ev, "peer_host", -1.0), "peer_host", at);
    e.severity = number_or(ev, "severity", 0.0);
    e.host_mask = checked<std::uint64_t>(number_or(ev, "host_mask", 0.0),
                                         "host_mask", at);
    e.onset = sim::SimTime{number_or(ev, "onset_s", 0.0)};
    e.recovery = sim::SimTime{number_or(ev, "recovery_s", 0.0)};
    e.latency_factor = number_or(ev, "latency_factor", 1.0);
    e.vertex =
        checked<std::int64_t>(number_or(ev, "vertex", -1.0), "vertex", at);
    e.bit = checked<int>(number_or(ev, "bit", -1.0), "bit", at);
    plan.events.push_back(e);
  }
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
