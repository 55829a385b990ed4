#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace psbench {

const char* span_name(Span s) {
  switch (s) {
    case Span::Episode: return "bench.episode";
    case Span::Setup: return "bench.setup";
    case Span::RtLaunch: return "rt.launch";
    case Span::RtHostAccess: return "rt.host_access";
    case Span::RtSync: return "rt.sync";
    case Span::GraphLaunch: return "gpu.graph_launch";
    case Span::GpuSync: return "gpu.sync";
    case Span::RtCriticalPath: return "rt.critical_path";
    case Span::TimelineOverlap: return "timeline.overlap";
    case Span::ProfilerHw: return "profiler.hw";
    case Span::EngineEnqueue: return "engine.enqueue";
    case Span::EngineCommit: return "engine.commit";
    case Span::EngineDrain: return "engine.drain";
    case Span::GpuLaunch: return "gpu.launch";
    case Span::MemoryAnnounce: return "memory.announce";
    case Span::IngestPost: return "ingest.post";
    case Span::IngestFlush: return "ingest.flush";
    case Span::QosTick: return "qos.tick";
    case Span::GpuAdvance: return "gpu.advance";
    case Span::kCount: break;
  }
  return "?";
}

void Tracer::open(Span name) {
  std::int32_t index = -1;
  const Clock::time_point now = Clock::now();
  if (stored_.size() < kMaxStored) {
    index = static_cast<std::int32_t>(stored_.size());
    Record r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : stack_.back().index;
    r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     now - epoch_)
                     .count();
    stored_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_.push_back({name, index, now});
}

void Tracer::close() {
  const Clock::time_point now = Clock::now();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = seconds_between(o.start, now);
  self_s_[static_cast<int>(o.name)] += dur;
  ++count_[static_cast<int>(o.name)];
  if (!stack_.empty()) self_s_[static_cast<int>(stack_.back().name)] -= dur;
  if (o.index >= 0) {
    stored_[static_cast<std::size_t>(o.index)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
            .count();
  }
}

void TraceTotals::add(const Tracer& t) {
  for (std::size_t i = 0; i < self_s.size(); ++i) {
    self_s[i] += t.self_s()[i];
    count[i] += t.count()[i];
  }
}

void write_trace(const std::string& dir, const std::string& run_id,
                 const std::vector<const Tracer*>& tracers,
                 const TraceTotals& totals, long episodes,
                 double traced_ops_per_s, double untraced_ops_per_s) {
  long stored = 0;
  long dropped = 0;
  for (const Tracer* t : tracers) {
    stored += static_cast<long>(t->stored().size());
    dropped += t->dropped();
  }

  const std::string spans_path = dir + "/" + run_id + ".spans.jsonl";
  {
    std::ofstream f(spans_path);
    f << "{\"run\": \"" << run_id << "\", \"stored\": " << stored
      << ", \"dropped\": " << dropped << "}\n";
    for (const Tracer* t : tracers) {
      for (const Tracer::Record& r : t->stored()) {
        f << "{\"run\": \"" << run_id << "\", \"tid\": " << t->thread()
          << ", \"name\": \"" << span_name(r.name)
          << "\", \"start_ns\": " << r.start_ns
          << ", \"end_ns\": " << r.end_ns << ", \"parent\": " << r.parent
          << "}\n";
      }
    }
  }

  const double ep = episodes > 0 ? static_cast<double>(episodes) : 1.0;
  std::string table;
  char line[160];
  std::snprintf(line, sizeof(line), "%-20s %10s %14s %14s\n", "span",
                "count", "self_s_total", "self_s/episode");
  table += line;
  for (int i = 0; i < Tracer::kNames; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (totals.count[k] == 0) continue;
    std::snprintf(line, sizeof(line), "%-20s %10ld %14.6f %14.9f\n",
                  span_name(static_cast<Span>(i)), totals.count[k],
                  totals.self_s[k], totals.self_s[k] / ep);
    table += line;
  }
  std::snprintf(line, sizeof(line),
                "(bench.episode self time is the benchmark's own loop "
                "overhead; %ld traced episodes)\n",
                episodes);
  table += line;
  const double overhead = untraced_ops_per_s - traced_ops_per_s;
  std::snprintf(line, sizeof(line),
                "tracing overhead: untraced %.1f ops/s - traced %.1f ops/s "
                "= %.1f ops/s (%.2f%%)\n",
                untraced_ops_per_s, traced_ops_per_s, overhead,
                untraced_ops_per_s > 0 ? 100.0 * overhead / untraced_ops_per_s
                                       : 0.0);
  table += line;
  std::snprintf(line, sizeof(line), "spans written: %ld (dropped %ld) -> %s\n",
                stored, dropped, spans_path.c_str());
  table += line;

  std::ofstream(dir + "/" + run_id + ".selftime.txt") << table;
  std::fputs(table.c_str(), stderr);
}

}  // namespace psbench
