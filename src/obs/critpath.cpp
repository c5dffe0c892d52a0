#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/zscore.hpp"

namespace sg::obs {

const char* to_string(CpCategory c) {
  switch (c) {
    case CpCategory::kCompute: return "compute";
    case CpCategory::kDeviceHost: return "device_host";
    case CpCategory::kInterHost: return "inter_host";
    case CpCategory::kWait: return "wait";
    case CpCategory::kRuntime: return "runtime";
    case CpCategory::kIdle: return "idle";
  }
  return "idle";
}

CpCategory categorize(SpanKind kind, std::string_view name) {
  switch (kind) {
    case SpanKind::kKernel: return CpCategory::kCompute;
    case SpanKind::kExtract:
    case SpanKind::kPcie:
    case SpanKind::kApply: return CpCategory::kDeviceHost;
    case SpanKind::kNet:
      return name.ends_with(".staging") ? CpCategory::kDeviceHost
                                        : CpCategory::kInterHost;
    case SpanKind::kWait: return CpCategory::kWait;
    case SpanKind::kCheckpoint:
    case SpanKind::kRehome:
    case SpanKind::kOther: return CpCategory::kRuntime;
  }
  return CpCategory::kRuntime;
}

std::string TraceView::track_label(std::int32_t track) const {
  if (track < 0) return "(none)";
  const auto t = static_cast<std::size_t>(track);
  if (t < track_names.size() && !track_names[t].empty()) {
    return track_names[t];
  }
  return "track " + std::to_string(track);
}

TraceView TraceView::from_tracer(const Tracer& tracer) {
  TraceView v;
  const std::vector<Span> spans = tracer.sorted_spans();
  v.spans.reserve(spans.size());
  for (const Span& s : spans) {
    CpSpan c;
    c.name = s.name;
    c.begin = s.begin;
    c.end = s.end;
    c.arg_a = s.arg_a;
    c.arg_b = s.arg_b;
    c.seq = s.seq;
    c.track = s.track;
    c.kind = s.kind;
    v.spans.push_back(std::move(c));
  }
  v.links = tracer.links();
  v.track_names.reserve(static_cast<std::size_t>(tracer.num_tracks()));
  for (int t = 0; t < tracer.num_tracks(); ++t) {
    v.track_names.push_back(tracer.track_name(t));
  }
  v.dropped = tracer.dropped();
  return v;
}

TraceView TraceView::from_chrome_trace(const JsonValue& doc) {
  JsonReader trace(doc, "trace schema");
  TraceView v;
  v.dropped = trace.integer<std::uint64_t>("otherData.dropped_spans", 0);
  const auto& events =
      trace.get("traceEvents", JsonValue::Kind::kArray, true)->array;
  for (std::size_t i = 0; i < events.size(); ++i) {
    JsonReader ev(events[i],
                  "trace schema: traceEvents[" + std::to_string(i) + "]");
    const std::string ph = ev.string("ph");
    const auto tid = ev.integer<std::int32_t>("tid", 0);
    if (ph == "M") {
      if (ev.string("name", "") == "thread_name") {
        const std::string name = ev.string("args.name", "");
        if (tid >= 0) {
          if (v.track_names.size() <= static_cast<std::size_t>(tid)) {
            v.track_names.resize(static_cast<std::size_t>(tid) + 1);
          }
          v.track_names[static_cast<std::size_t>(tid)] = name;
        }
      }
      continue;
    }
    if (ph != "X") continue;
    CpSpan s;
    s.track = tid;
    s.name = ev.string("name");
    s.kind = span_kind_from_string(ev.string("cat"));
    const double ts = ev.number("ts");
    const double dur = ev.number("dur");
    s.begin = sim::SimTime::micros(ts);
    s.end = sim::SimTime::micros(ts + dur);
    // A span without args.seq comes from an older or foreign trace.
    s.seq = ev.integer<std::uint64_t>("args.seq");
    // The two kind-specific args (bytes/peer, edges/round, ...) are the
    // remaining numeric members of args; map order is alphabetical, and
    // the writer emits a-name before b-name only for some kinds, so
    // recover them by name.
    std::size_t slot = 0;
    for (const auto& [k, val] : ev.get("args", JsonValue::Kind::kObject,
                                       true)->object) {
      if (k == "seq" || val.kind != JsonValue::Kind::kNumber) continue;
      // Alphabetical order is stable; which generic arg is which only
      // matters for round labels, recovered below by kind.
      (slot++ == 0 ? s.arg_a : s.arg_b) =
          ev.integer<std::uint64_t>("args." + k);
    }
    // Round-bearing kinds store the round in arg_b; its exported name
    // ("round") sorts after the a-name for kernel ("edges") and
    // checkpoint ("bytes"), so the positional recovery above is
    // already correct. Assert the invariant instead of guessing.
    if (s.kind == SpanKind::kKernel || s.kind == SpanKind::kCheckpoint ||
        s.kind == SpanKind::kWait) {
      s.arg_b = ev.integer<std::uint64_t>("args.round", s.arg_b);
    }
    v.spans.push_back(std::move(s));
  }
  if (const JsonValue* links =
          trace.get("sgLinks", JsonValue::Kind::kArray, false)) {
    for (std::size_t i = 0; i < links->array.size(); ++i) {
      JsonReader l(links->array[i],
                   "trace schema: sgLinks[" + std::to_string(i) + "]");
      SpanLink e;
      e.from.track = l.integer<std::int32_t>("fromTid");
      e.from.seq = l.integer<std::uint64_t>("fromSeq");
      e.to.track = l.integer<std::int32_t>("toTid");
      e.to.seq = l.integer<std::uint64_t>("toSeq");
      v.links.push_back(e);
    }
  }
  std::sort(v.spans.begin(), v.spans.end(),
            [](const CpSpan& a, const CpSpan& b) {
              if (a.track != b.track) return a.track < b.track;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.seq < b.seq;
            });
  return v;
}

// ---- critical-path walk --------------------------------------------------

namespace {

/// Reimported traces round-trip through decimal microseconds, so allow
/// a nanosecond of slop in "ends before" comparisons.
constexpr sim::SimTime kEps{1e-9};

struct WalkIndex {
  const TraceView* view = nullptr;
  // spans grouped per track (already contiguous in view->spans).
  struct TrackRange {
    std::size_t first = 0;
    std::size_t count = 0;
    std::vector<std::size_t> by_end;  // span indices sorted by (end, seq)
  };
  std::map<std::int32_t, TrackRange> tracks;
  std::map<std::pair<std::int32_t, std::uint64_t>, std::size_t> by_ref;
  std::vector<std::vector<std::size_t>> parents;  // explicit link edges

  explicit WalkIndex(const TraceView& v) : view(&v) {
    const auto& spans = v.spans;
    parents.resize(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const CpSpan& s = spans[i];
      auto& tr = tracks[s.track];
      if (tr.count == 0) tr.first = i;
      ++tr.count;
      by_ref.emplace(std::make_pair(s.track, s.seq), i);
    }
    for (auto& [track, tr] : tracks) {
      tr.by_end.reserve(tr.count);
      for (std::size_t i = tr.first; i < tr.first + tr.count; ++i) {
        tr.by_end.push_back(i);
      }
      std::sort(tr.by_end.begin(), tr.by_end.end(),
                [&spans](std::size_t a, std::size_t b) {
                  if (spans[a].end != spans[b].end) {
                    return spans[a].end < spans[b].end;
                  }
                  return spans[a].seq < spans[b].seq;
                });
    }
    for (const SpanLink& l : v.links) {
      const auto from = by_ref.find({l.from.track, l.from.seq});
      const auto to = by_ref.find({l.to.track, l.to.seq});
      if (from == by_ref.end() || to == by_ref.end()) continue;
      parents[to->second].push_back(from->second);
    }
  }

  /// Latest-ending unvisited span on `track` with end <= at + eps,
  /// excluding `self`. kNoSpan when none.
  [[nodiscard]] std::size_t same_track_pred(
      std::int32_t track, sim::SimTime at, std::size_t self,
      const std::vector<std::uint8_t>& visited) const {
    const auto it = tracks.find(track);
    if (it == tracks.end()) return CpSegment::kNoSpan;
    const auto& by_end = it->second.by_end;
    const auto& spans = view->spans;
    auto pos = std::upper_bound(by_end.begin(), by_end.end(), at + kEps,
                                [&spans](sim::SimTime t, std::size_t i) {
                                  return t < spans[i].end;
                                });
    while (pos != by_end.begin()) {
      --pos;
      const std::size_t i = *pos;
      if (i != self && visited[i] == 0) return i;
    }
    return CpSegment::kNoSpan;
  }
};

}  // namespace

CpAnalysis analyze_critical_path(const TraceView& view,
                                 const ExplainContext* ctx) {
  CpAnalysis a;
  a.dropped = view.dropped;
  const auto& spans = view.spans;
  if (spans.empty()) {
    a.hints.emplace_back("trace contains no spans — nothing to attribute");
    return a;
  }

  // Start at the globally latest-ending span (tie: lowest track, seq).
  std::size_t start = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].end > spans[start].end) start = i;
  }
  a.makespan = spans[start].end;

  const WalkIndex index(view);
  std::vector<std::uint8_t> visited(spans.size(), 0);

  std::vector<CpSegment> segs;  // built backward, reversed at the end
  std::uint64_t round_ctx = 0;
  std::map<std::uint64_t, CpRoundRow> rounds;
  std::map<std::int32_t, sim::SimTime> on_path;

  const auto attribute = [&](std::size_t span_idx, sim::SimTime lo,
                             sim::SimTime hi, CpCategory cat,
                             std::int32_t track) {
    if (!(hi > lo)) return;
    CpSegment seg;
    seg.span = span_idx;
    seg.begin = lo;
    seg.end = hi;
    seg.category = cat;
    seg.track = track;
    seg.round = round_ctx;
    segs.push_back(seg);
    a.by_category[static_cast<std::size_t>(cat)] += hi - lo;
    if (track >= 0) on_path[track] += hi - lo;
    CpRoundRow& row = rounds[round_ctx];
    row.round = round_ctx;
    row.length += hi - lo;
    row.by_category[static_cast<std::size_t>(cat)] += hi - lo;
  };

  std::size_t cur = start;
  sim::SimTime cover = a.makespan;  // lowest point already attributed
  for (std::size_t steps = 0; steps <= spans.size(); ++steps) {
    const CpSpan& s = spans[cur];
    visited[cur] = 1;
    // Round context: a round's critical cost is its kernel plus the
    // communication and waits that gated it, so the label applies to
    // this span and everything earlier until the previous marker.
    if (s.kind == SpanKind::kKernel ||
        (s.kind == SpanKind::kWait && s.name == "wait.barrier") ||
        s.kind == SpanKind::kCheckpoint) {
      if (s.arg_b > 0) round_ctx = s.arg_b;
    }

    // Binding predecessor: the latest-ending causal parent, from the
    // explicit link edges plus the same-track predecessor.
    std::size_t parent = CpSegment::kNoSpan;
    const auto consider = [&](std::size_t p) {
      if (p == CpSegment::kNoSpan || visited[p] != 0) return;
      if (parent == CpSegment::kNoSpan) {
        parent = p;
        return;
      }
      const CpSpan& a_ = spans[p];
      const CpSpan& b_ = spans[parent];
      if (a_.end != b_.end) {
        if (a_.end > b_.end) parent = p;
        return;
      }
      if (a_.track != b_.track ? a_.track < b_.track : a_.seq < b_.seq) {
        parent = p;
      }
    };
    for (const std::size_t p : index.parents[cur]) consider(p);
    consider(index.same_track_pred(s.track, s.begin, cur, visited));

    const sim::SimTime pend =
        parent == CpSegment::kNoSpan ? sim::SimTime::zero()
                                     : spans[parent].end;
    const sim::SimTime lo = sim::min(cover, sim::max(s.begin, pend));
    attribute(cur, lo, cover, categorize(s.kind, s.name), s.track);
    cover = lo;
    if (parent == CpSegment::kNoSpan) {
      // Root of the chain: anything before it is untracked idle time.
      attribute(CpSegment::kNoSpan, sim::SimTime::zero(), cover,
                CpCategory::kIdle, s.track);
      cover = sim::SimTime::zero();
      break;
    }
    if (pend < cover) {
      // Gap between the parent's completion and this span: time covered
      // by no span on the chain.
      attribute(CpSegment::kNoSpan, pend, cover, CpCategory::kIdle, s.track);
      cover = pend;
    }
    cur = parent;
  }

  std::reverse(segs.begin(), segs.end());
  a.segments = std::move(segs);
  a.cp_length = a.makespan - cover;  // cover == 0 on a completed walk

  // Per-track blame (every track with spans appears, even off-path).
  for (const auto& [track, range] : index.tracks) {
    (void)range;
    CpTrackBlame b;
    b.track = track;
    b.name = view.track_label(track);
    const auto it = on_path.find(track);
    b.on_path = it != on_path.end() ? it->second : sim::SimTime::zero();
    b.blame_pct = a.cp_length.seconds() > 0.0
                      ? b.on_path.seconds() / a.cp_length.seconds() * 100.0
                      : 0.0;
    b.slack = a.cp_length - b.on_path;
    a.tracks.push_back(std::move(b));
  }
  std::sort(a.tracks.begin(), a.tracks.end(),
            [](const CpTrackBlame& x, const CpTrackBlame& y) {
              if (x.on_path != y.on_path) return x.on_path > y.on_path;
              return x.track < y.track;
            });

  for (auto& [r, row] : rounds) {
    (void)r;
    a.rounds.push_back(row);
  }

  // Straggler ranking: z-score of per-track mean kernel time.
  {
    struct KernelStat {
      std::int32_t track;
      std::uint64_t n = 0;
      double sum = 0.0;
    };
    std::vector<KernelStat> ks;
    for (const auto& [track, range] : index.tracks) {
      KernelStat k{track, 0, 0.0};
      for (std::size_t i = range.first; i < range.first + range.count; ++i) {
        if (spans[i].kind != SpanKind::kKernel) continue;
        ++k.n;
        k.sum += spans[i].duration().seconds();
      }
      if (k.n > 0) ks.push_back(k);
    }
    if (ks.size() >= 2) {
      std::vector<double> means;
      means.reserve(ks.size());
      for (const KernelStat& k : ks) {
        means.push_back(k.sum / static_cast<double>(k.n));
      }
      const std::vector<double> zs = population_zscores(means);
      for (std::size_t i = 0; i < ks.size(); ++i) {
        const KernelStat& k = ks[i];
        CpStraggler st;
        st.track = k.track;
        st.name = view.track_label(k.track);
        st.kernels = k.n;
        st.mean_kernel_s = means[i];
        st.z = zs[i];
        a.stragglers.push_back(std::move(st));
      }
      std::sort(a.stragglers.begin(), a.stragglers.end(),
                [](const CpStraggler& x, const CpStraggler& y) {
                  if (x.z != y.z) return x.z > y.z;
                  return x.track < y.track;
                });
    }
  }

  // ---- rule-based hints (deterministic order and wording) ----
  char buf[256];
  const auto hintf = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    a.hints.emplace_back(buf);
  };
  if (a.dropped > 0) {
    hintf("warning: %llu span(s) were dropped — attribution is incomplete; "
          "raise the tracer per-track cap",
          static_cast<unsigned long long>(a.dropped));
  }

  const double compute = a.category_pct(CpCategory::kCompute);
  const double devhost = a.category_pct(CpCategory::kDeviceHost);
  const double interhost = a.category_pct(CpCategory::kInterHost);
  const double wait = a.category_pct(CpCategory::kWait);
  CpCategory dom = CpCategory::kCompute;
  double dom_pct = compute;
  const auto contend = [&](CpCategory c, double pct) {
    if (pct > dom_pct) {
      dom = c;
      dom_pct = pct;
    }
  };
  contend(CpCategory::kDeviceHost, devhost);
  contend(CpCategory::kInterHost, interhost);
  contend(CpCategory::kWait, wait);

  switch (dom) {
    case CpCategory::kInterHost: {
      hintf("inter-host network dominates the critical path (%.1f%%) — "
            "cut cross-host traffic: update-only sync (UO) elides unchanged "
            "values, CVC partitioning bounds sync partners at scale",
            interhost);
      if (ctx != nullptr && ctx->net_fixed_cost_s >= 0.0) {
        // Mean on-path inter-host segment vs the per-hop fixed cost.
        double total = 0.0;
        std::uint64_t n = 0;
        for (const CpSegment& seg : a.segments) {
          if (seg.category != CpCategory::kInterHost) continue;
          total += seg.duration().seconds();
          ++n;
        }
        const double mean_hop = n > 0 ? total / static_cast<double>(n) : 0.0;
        if (mean_hop > 0.0 && ctx->net_fixed_cost_s >= 0.5 * mean_hop) {
          hintf("per-message fixed cost (%.2e s) is >=50%% of the mean "
                "on-path hop (%.2e s) — latency-bound: batch or aggregate "
                "small messages",
                ctx->net_fixed_cost_s, mean_hop);
        } else if (mean_hop > 0.0) {
          hintf("mean on-path hop (%.2e s) dwarfs the per-message fixed "
                "cost (%.2e s) — bandwidth-bound: reduce volume (UO, CVC, "
                "smaller value types)",
                mean_hop, ctx->net_fixed_cost_s);
        }
      }
      break;
    }
    case CpCategory::kDeviceHost:
      hintf("device-host transfers dominate the critical path (%.1f%%) — "
            "enable GPUDirect and communication overlap, or shrink payloads "
            "with update-only sync",
            devhost);
      break;
    case CpCategory::kWait: {
      hintf("waiting dominates the critical path (%.1f%%) — devices are "
            "blocked on messages or barriers more than they work",
            wait);
      break;
    }
    case CpCategory::kCompute:
    default:
      hintf("compute dominates the critical path (%.1f%%) — communication "
            "is overlapped or cheap at this scale; kernel-side balance and "
            "throughput are the levers",
            compute);
      break;
  }

  if (!a.stragglers.empty() && a.stragglers.front().z >= 2.0) {
    const CpStraggler& s = a.stragglers.front();
    hintf("straggler: %s mean kernel time is %.1f sigma above the fleet — "
          "a dynamic balancer (ALB) or eviction policy would contain it",
          s.name.c_str(), s.z);
    if (ctx != nullptr && ctx->stats != nullptr &&
        ctx->stats->faults.straggler_suspicions > 0) {
      hintf("health detector agrees: %llu straggler suspicion(s) were "
            "raised during the run",
            static_cast<unsigned long long>(
                ctx->stats->faults.straggler_suspicions));
    }
  }
  if (ctx != nullptr && ctx->replication_factor >= 2.0) {
    hintf("replication factor %.2f: each master averages %.2f mirrors — "
          "sync volume scales with it; CVC caps partners at higher device "
          "counts",
          ctx->replication_factor, ctx->replication_factor - 1.0);
  }
  return a;
}

// ---- rendering -----------------------------------------------------------

namespace {

std::string fmt_secs(sim::SimTime t) { return format_double(t.seconds()); }

std::string fmt_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", pct);
  return buf;
}

/// Top-k on-path segments by duration (ties: earlier begin, lower
/// track). Idle segments compete too — a huge untracked gap *is* a
/// bottleneck worth surfacing.
std::vector<std::size_t> top_segments(const CpAnalysis& a, int k) {
  std::vector<std::size_t> idx(a.segments.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&a](std::size_t x, std::size_t y) {
    const CpSegment& sx = a.segments[x];
    const CpSegment& sy = a.segments[y];
    if (sx.duration() != sy.duration()) return sx.duration() > sy.duration();
    if (sx.begin != sy.begin) return sx.begin < sy.begin;
    return sx.track < sy.track;
  });
  if (idx.size() > static_cast<std::size_t>(k)) {
    idx.resize(static_cast<std::size_t>(k));
  }
  return idx;
}

std::string segment_name(const TraceView& view, const CpSegment& seg) {
  if (seg.span == CpSegment::kNoSpan) return "(idle)";
  return view.spans[seg.span].name;
}

}  // namespace

void render_explain_text(std::ostream& os, const TraceView& view,
                         const CpAnalysis& a, const ExplainOptions& opts,
                         const ExplainContext* ctx) {
  os << "== sg_explain: critical-path attribution ==\n";
  if (ctx != nullptr && !ctx->config.empty()) {
    os << "config: " << ctx->config << "\n";
  }
  os << "makespan: " << fmt_secs(a.makespan) << " s over "
     << view.track_names.size() << " track(s), " << view.spans.size()
     << " span(s), " << view.links.size() << " causal link(s)\n";
  os << "critical path: " << fmt_secs(a.cp_length) << " s in "
     << a.segments.size() << " segment(s)\n";
  if (a.dropped > 0) {
    os << "dropped spans: " << a.dropped << " (attribution incomplete)\n";
  }

  os << "\n-- breakdown (on critical path) --\n";
  for (int c = 0; c < kNumCpCategories; ++c) {
    const auto cat = static_cast<CpCategory>(c);
    os << "  " << to_string(cat) << ": "
       << fmt_secs(a.by_category[static_cast<std::size_t>(c)]) << " s ("
       << fmt_pct(a.category_pct(cat)) << "%)\n";
  }

  os << "\n-- per-track blame --\n";
  for (const CpTrackBlame& b : a.tracks) {
    if (!(b.on_path > sim::SimTime::zero())) continue;
    os << "  " << b.name << ": " << fmt_secs(b.on_path) << " s ("
       << fmt_pct(b.blame_pct) << "%), slack " << fmt_secs(b.slack) << " s\n";
  }

  os << "\n-- top " << opts.top_k << " bottleneck segments --\n";
  for (const std::size_t i : top_segments(a, opts.top_k)) {
    const CpSegment& seg = a.segments[i];
    os << "  " << segment_name(view, seg) << " ["
       << to_string(seg.category) << "] on " << view.track_label(seg.track)
       << ": " << fmt_secs(seg.duration()) << " s @ " << fmt_secs(seg.begin)
       << " s";
    if (seg.round > 0) os << " (round " << seg.round << ")";
    os << "\n";
  }

  if (!a.rounds.empty()) {
    os << "\n-- slowest rounds (critical-path share) --\n";
    std::vector<std::size_t> order(a.rounds.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&a](std::size_t x, std::size_t y) {
      if (a.rounds[x].length != a.rounds[y].length) {
        return a.rounds[x].length > a.rounds[y].length;
      }
      return a.rounds[x].round < a.rounds[y].round;
    });
    if (order.size() > static_cast<std::size_t>(opts.top_k)) {
      order.resize(static_cast<std::size_t>(opts.top_k));
    }
    for (const std::size_t i : order) {
      const CpRoundRow& r = a.rounds[i];
      os << "  round " << r.round << ": " << fmt_secs(r.length) << " s"
         << " (compute " << fmt_secs(r.by_category[0]) << ", device-host "
         << fmt_secs(r.by_category[1]) << ", inter-host "
         << fmt_secs(r.by_category[2]) << ", wait " << fmt_secs(r.by_category[3])
         << ")\n";
    }
  }

  if (!a.stragglers.empty()) {
    os << "\n-- straggler ranking (mean kernel z-score) --\n";
    for (const CpStraggler& s : a.stragglers) {
      char z[32];
      std::snprintf(z, sizeof(z), "%+.2f", s.z);
      os << "  " << s.name << ": mean " << format_double(s.mean_kernel_s)
         << " s over " << s.kernels << " kernel(s), z " << z << "\n";
    }
  }

  os << "\n-- hints --\n";
  for (const std::string& h : a.hints) os << "  * " << h << "\n";
}

std::string render_explain_json(const TraceView& view, const CpAnalysis& a,
                                const ExplainOptions& opts,
                                const ExplainContext* ctx) {
  JsonWriter w;
  w.begin_object();
  w.kv("sg_explain_schema", kExplainSchemaVersion);
  if (ctx != nullptr && !ctx->config.empty()) w.kv("config", ctx->config);
  w.kv("makespan_s", a.makespan.seconds());
  w.kv("cp_length_s", a.cp_length.seconds());
  w.kv("spans", static_cast<std::uint64_t>(view.spans.size()));
  w.kv("links", static_cast<std::uint64_t>(view.links.size()));
  w.kv("segments", static_cast<std::uint64_t>(a.segments.size()));
  w.kv("dropped_spans", a.dropped);

  w.key("breakdown").begin_object();
  for (int c = 0; c < kNumCpCategories; ++c) {
    const auto cat = static_cast<CpCategory>(c);
    w.kv(std::string(to_string(cat)) + "_s",
         a.by_category[static_cast<std::size_t>(c)].seconds());
    w.kv(std::string(to_string(cat)) + "_pct", a.category_pct(cat));
  }
  w.end_object();

  w.key("tracks").begin_array();
  for (const CpTrackBlame& b : a.tracks) {
    w.begin_object();
    w.kv("track", b.track);
    w.kv("name", b.name);
    w.kv("on_path_s", b.on_path.seconds());
    w.kv("blame_pct", b.blame_pct);
    w.kv("slack_s", b.slack.seconds());
    w.end_object();
  }
  w.end_array();

  w.key("top_segments").begin_array();
  for (const std::size_t i : top_segments(a, opts.top_k)) {
    const CpSegment& seg = a.segments[i];
    w.begin_object();
    w.kv("name", segment_name(view, seg));
    w.kv("category", to_string(seg.category));
    w.kv("track", seg.track);
    w.kv("begin_s", seg.begin.seconds());
    w.kv("duration_s", seg.duration().seconds());
    w.kv("round", seg.round);
    w.end_object();
  }
  w.end_array();

  w.key("rounds").begin_array();
  for (const CpRoundRow& r : a.rounds) {
    w.begin_object();
    w.kv("round", r.round);
    w.kv("length_s", r.length.seconds());
    for (int c = 0; c < kNumCpCategories; ++c) {
      w.kv(std::string(to_string(static_cast<CpCategory>(c))) + "_s",
           r.by_category[static_cast<std::size_t>(c)].seconds());
    }
    w.end_object();
  }
  w.end_array();

  w.key("stragglers").begin_array();
  for (const CpStraggler& s : a.stragglers) {
    w.begin_object();
    w.kv("track", s.track);
    w.kv("name", s.name);
    w.kv("kernels", s.kernels);
    w.kv("mean_kernel_s", s.mean_kernel_s);
    w.kv("z", s.z);
    w.end_object();
  }
  w.end_array();

  w.key("hints").begin_array();
  for (const std::string& h : a.hints) w.value(h);
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace sg::obs
