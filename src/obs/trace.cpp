#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace sg::obs {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kExtract: return "extract";
    case SpanKind::kPcie: return "pcie";
    case SpanKind::kNet: return "net";
    case SpanKind::kApply: return "apply";
    case SpanKind::kWait: return "wait";
    case SpanKind::kCheckpoint: return "checkpoint";
    case SpanKind::kRehome: return "rehome";
    case SpanKind::kOther: return "other";
  }
  return "other";
}

SpanKind span_kind_from_string(std::string_view s) {
  if (s == "kernel") return SpanKind::kKernel;
  if (s == "extract") return SpanKind::kExtract;
  if (s == "pcie") return SpanKind::kPcie;
  if (s == "net") return SpanKind::kNet;
  if (s == "apply") return SpanKind::kApply;
  if (s == "wait") return SpanKind::kWait;
  if (s == "checkpoint") return SpanKind::kCheckpoint;
  if (s == "rehome") return SpanKind::kRehome;
  return SpanKind::kOther;
}

namespace {

/// Kind-specific labels for the two generic span args in the exported
/// JSON (so Perfetto tooltips read "bytes: 4096" rather than "a: 4096").
struct ArgNames {
  const char* a;
  const char* b;
};

ArgNames arg_names(SpanKind k) {
  switch (k) {
    case SpanKind::kKernel: return {"edges", "round"};
    case SpanKind::kExtract:
    case SpanKind::kPcie:
    case SpanKind::kNet:
    case SpanKind::kApply: return {"bytes", "peer"};
    case SpanKind::kWait: return {"bytes", "peer"};
    case SpanKind::kCheckpoint: return {"bytes", "round"};
    case SpanKind::kRehome: return {"rehomed", "migrated"};
    case SpanKind::kOther: return {"a", "b"};
  }
  return {"a", "b"};
}

}  // namespace

void Tracer::require_tracks(int n) {
  if (n > static_cast<int>(tracks_.size())) {
    tracks_.resize(static_cast<std::size_t>(n));
  }
}

void Tracer::name_track(int track, std::string name) {
  require_tracks(track + 1);
  tracks_[static_cast<std::size_t>(track)].name = std::move(name);
}

SpanRef Tracer::record(int track, SpanKind kind, const char* name,
                       sim::SimTime begin, sim::SimTime end,
                       std::uint64_t arg_a, std::uint64_t arg_b) {
  if (track < 0 || track >= static_cast<int>(tracks_.size())) {
    return SpanRef{};
  }
  Track& t = tracks_[static_cast<std::size_t>(track)];
  Span s;
  s.name = name;
  s.begin = begin;
  s.end = end;
  s.arg_a = arg_a;
  s.arg_b = arg_b;
  s.seq = t.seq++;
  s.track = track;
  s.kind = kind;
  if (t.ring.size() < cap_) {
    t.ring.push_back(s);
  } else {
    t.ring[t.next] = s;
    t.next = (t.next + 1) % cap_;
    ++t.dropped;
  }
  return SpanRef{s.track, s.seq};
}

void Tracer::link(SpanRef from, SpanRef to) {
  if (!from.valid() || !to.valid()) return;
  if (to.track >= static_cast<int>(tracks_.size())) return;
  tracks_[static_cast<std::size_t>(to.track)].links.push_back(
      SpanLink{from, to});
}

SpanRef Tracer::last_ref(int track) const {
  if (track < 0 || track >= static_cast<int>(tracks_.size())) {
    return SpanRef{};
  }
  const Track& t = tracks_[static_cast<std::size_t>(track)];
  if (t.seq == 0) return SpanRef{};
  return SpanRef{track, t.seq - 1};
}

std::vector<SpanLink> Tracer::links() const {
  std::vector<SpanLink> out;
  std::size_t total = 0;
  for (const Track& t : tracks_) total += t.links.size();
  out.reserve(total);
  for (const Track& t : tracks_) {
    out.insert(out.end(), t.links.begin(), t.links.end());
  }
  std::sort(out.begin(), out.end(), [](const SpanLink& a, const SpanLink& b) {
    if (a.to.track != b.to.track) return a.to.track < b.to.track;
    if (a.to.seq != b.to.seq) return a.to.seq < b.to.seq;
    if (a.from.track != b.from.track) return a.from.track < b.from.track;
    return a.from.seq < b.from.seq;
  });
  return out;
}

std::vector<Span> Tracer::sorted_spans() const {
  std::vector<Span> out;
  std::size_t total = 0;
  for (const Track& t : tracks_) total += t.ring.size();
  out.reserve(total);
  for (const Track& t : tracks_) {
    out.insert(out.end(), t.ring.begin(), t.ring.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.seq < b.seq;
  });
  return out;
}

sim::SimTime Tracer::kind_sum(int track, SpanKind kind) const {
  sim::SimTime sum;
  if (track < 0 || track >= static_cast<int>(tracks_.size())) return sum;
  for (const Span& s : tracks_[static_cast<std::size_t>(track)].ring) {
    if (s.kind == kind) sum += s.end - s.begin;
  }
  return sum;
}

sim::SimTime Tracer::comm_sum(int track) const {
  return kind_sum(track, SpanKind::kExtract) +
         kind_sum(track, SpanKind::kPcie) + kind_sum(track, SpanKind::kApply);
}

// Summed per track: parallel workers record only to their own tracks,
// so no counter is shared between them.
std::uint64_t Tracer::recorded() const {
  std::uint64_t r = 0;
  for (const Track& t : tracks_) r += t.seq;
  return r;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t d = 0;
  for (const Track& t : tracks_) d += t.dropped;
  return d;
}

void Tracer::clear() {
  for (Track& t : tracks_) {
    t.ring.clear();
    t.links.clear();
    t.next = 0;
    t.seq = 0;
    t.dropped = 0;
  }
}

std::string Tracer::chrome_trace_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.kv("clock", "simulated");
  w.kv("recorded", recorded());
  w.kv("dropped_spans", dropped());
  w.end_object();
  w.key("traceEvents").begin_array();

  // Process + thread metadata so Perfetto labels the tracks.
  w.begin_object();
  w.kv("ph", "M").kv("pid", 0).kv("tid", 0).kv("name", "process_name");
  w.key("args").begin_object().kv("name", "scalegraph-sim").end_object();
  w.end_object();
  for (int t = 0; t < num_tracks(); ++t) {
    const std::string& name = tracks_[static_cast<std::size_t>(t)].name;
    w.begin_object();
    w.kv("ph", "M").kv("pid", 0).kv("tid", t).kv("name", "thread_name");
    w.key("args").begin_object();
    w.kv("name", name.empty() ? "track " + std::to_string(t) : name);
    w.end_object();
    w.end_object();
    // sort_index keeps tracks in id order rather than name order.
    w.begin_object();
    w.kv("ph", "M").kv("pid", 0).kv("tid", t).kv("name", "thread_sort_index");
    w.key("args").begin_object().kv("sort_index", t).end_object();
    w.end_object();
  }

  for (const Span& s : sorted_spans()) {
    const ArgNames an = arg_names(s.kind);
    w.begin_object();
    w.kv("ph", "X");
    w.kv("pid", 0);
    w.kv("tid", s.track);
    w.kv("name", s.name);
    w.kv("cat", to_string(s.kind));
    w.kv("ts", s.begin.micros());
    const double dur = (s.end - s.begin).micros();
    w.kv("dur", dur < 0.0 ? 0.0 : dur);
    w.key("args").begin_object();
    w.kv(an.a, s.arg_a);
    w.kv(an.b, s.arg_b);
    w.kv("seq", s.seq);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  // Causal edges (scalegraph extension, ignored by Perfetto). Only
  // edges with both endpoints still retained are exported, so importers
  // never see dangling refs.
  const auto retained = [this](SpanRef r) {
    if (!r.valid() || r.track >= static_cast<int>(tracks_.size())) {
      return false;
    }
    const Track& t = tracks_[static_cast<std::size_t>(r.track)];
    return r.seq < t.seq && r.seq >= t.seq - t.ring.size();
  };
  w.key("sgLinks").begin_array();
  for (const SpanLink& l : links()) {
    if (!retained(l.from) || !retained(l.to)) continue;
    w.begin_object();
    w.kv("fromTid", l.from.track);
    w.kv("fromSeq", l.from.seq);
    w.kv("toTid", l.to.track);
    w.kv("toSeq", l.to.seq);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  if (dropped() > 0) {
    std::fprintf(stderr,
                 "obs: warning: %llu span(s) dropped (per-track cap %zu); "
                 "trace %s will not reconcile with RunStats\n",
                 static_cast<unsigned long long>(dropped()), cap_,
                 path.string().c_str());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string json = chrome_trace_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.put('\n');
  return out.good();
}

}  // namespace sg::obs
