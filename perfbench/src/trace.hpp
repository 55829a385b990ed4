// Span tracing for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own files, around each call
// it makes into one of psched's layers: name, start, end, parent and the
// run id. Each thread owns one Tracer (no locking on the hot path). Self
// time — a span's duration minus the part covered by its child spans — is
// folded in exactly at close, so the per-layer table needs no stored spans;
// the first kMaxStored spans of each thread are kept in memory as well and
// written out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace psbench {

/// Span names; each is a layer boundary the benchmark crosses.
enum class Span : std::uint8_t {
  Episode,         ///< one timed region of the workload (the root)
  Setup,           ///< building a rig inside a paper_suite round
  RtLaunch,        ///< rt ConfiguredKernel::launch
  RtHostAccess,    ///< rt DeviceArray::touch_read / touch_write
  RtSync,          ///< rt Context::synchronize
  GraphLaunch,     ///< sim TaskGraph::Exec::launch
  GpuSync,         ///< sim GpuRuntime::synchronize_device
  RtCriticalPath,  ///< rt DagRecorder::critical_path_us
  TimelineOverlap, ///< sim Timeline::overlap_metrics
  ProfilerHw,      ///< sim Profiler::compute
  EngineEnqueue,   ///< sim Engine begin_transaction + enqueue/record/wait
  EngineCommit,    ///< sim Engine::commit_transaction
  EngineDrain,     ///< sim Engine::run_all
  GpuLaunch,       ///< sim Tenant::launch (GpuRuntime::launch)
  MemoryAnnounce,  ///< sim GpuRuntime::announce_frontier
  IngestPost,      ///< sim Tenant::post_replay (producer side)
  IngestFlush,     ///< sim IngestService::flush_and_wait
  QosTick,         ///< sim QosManager::tick
  GpuAdvance,      ///< sim GpuRuntime::host_advance
  kCount
};

[[nodiscard]] const char* span_name(Span s);

class Tracer {
 public:
  static constexpr std::size_t kMaxStored = 100'000;
  static constexpr int kNames = static_cast<int>(Span::kCount);

  struct Record {
    Span name = Span::Episode;
    std::int32_t parent = -1;  ///< index into this thread's stored spans
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  Tracer(bool on, int thread, Clock::time_point epoch)
      : on_(on), thread_(thread), epoch_(epoch) {}

  /// RAII span: opens at construction, closes at destruction. Free when
  /// the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, Span name) : t_(t.on_ ? &t : nullptr) {
      if (t_ != nullptr) t_->open(name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] int thread() const { return thread_; }
  /// Exact self time (seconds) and span count per name.
  [[nodiscard]] const std::array<double, kNames>& self_s() const {
    return self_s_;
  }
  [[nodiscard]] const std::array<long, kNames>& count() const {
    return count_;
  }
  [[nodiscard]] const std::vector<Record>& stored() const { return stored_; }
  [[nodiscard]] long dropped() const { return dropped_; }

 private:
  struct Open {
    Span name;
    std::int32_t index;  ///< stored index, -1 when over the storage cap
    Clock::time_point start;
  };
  void open(Span name);
  void close();

  bool on_;
  int thread_;
  Clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Record> stored_;
  long dropped_ = 0;
  std::array<double, kNames> self_s_{};
  std::array<long, kNames> count_{};
};

/// Sum of several threads' self-time tables.
struct TraceTotals {
  std::array<double, Tracer::kNames> self_s{};
  std::array<long, Tracer::kNames> count{};
  void add(const Tracer& t);
  [[nodiscard]] double self(Span s) const {
    return self_s[static_cast<std::size_t>(s)];
  }
};

/// Write `<dir>/<run_id>.spans.jsonl` (one span per line) and
/// `<dir>/<run_id>.selftime.txt` (the per-layer self-time table, with the
/// tracing overhead stated beside it), and print the table to stderr.
/// `episodes` divides the table's seconds into per-episode figures.
void write_trace(const std::string& dir, const std::string& run_id,
                 const std::vector<const Tracer*>& tracers,
                 const TraceTotals& totals, long episodes,
                 double traced_ops_per_s, double untraced_ops_per_s);

}  // namespace psbench
