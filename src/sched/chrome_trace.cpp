#include "sched/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <vector>

#include "support/json.hpp"

namespace conflux::sched {

namespace {

constexpr double kSecondsToUs = 1e6;

int tid_of(Slice::Track track) {
  switch (track) {
    case Slice::Track::Cpu: return 0;
    case Slice::Track::Out: return 1;
    case Slice::Track::In: return 2;
  }
  return 0;
}

const char* track_name(Slice::Track track) {
  switch (track) {
    case Slice::Track::Cpu: return "cpu";
    case Slice::Track::Out: return "net-out";
    case Slice::Track::In: return "net-in";
  }
  return "?";
}

const char* category_name(TaskCategory c) {
  switch (c) {
    case TaskCategory::Urgent: return "urgent";
    case TaskCategory::Lazy: return "lazy";
    case TaskCategory::Other: return "other";
  }
  return "?";
}

/// Metadata event naming a trace process or thread.
void write_meta(json::Writer& w, const char* what, int pid, int tid,
                const std::string& name) {
  w.begin_object();
  w.field("name", what);
  w.field("ph", "M");
  w.field("pid", pid);
  w.field("tid", tid);
  w.key("args");
  w.begin_object();
  w.field("name", std::string_view(name));
  w.end_object();
  w.end_object();
}

/// Complete-event ("X") header up to its args (caller writes args + closes).
void begin_complete(json::Writer& w, std::string_view name, const char* cat,
                    int pid, int tid, double start_s, double dur_s) {
  w.begin_object();
  w.field("name", name);
  w.field("cat", cat);
  w.field("ph", "X");
  w.field("pid", pid);
  w.field("tid", tid);
  w.field("ts", start_s * kSecondsToUs);
  w.field("dur", dur_s * kSecondsToUs);
}

/// The task-pool process (pid `pid`): one thread per worker, one "X" event
/// per executed task. Shared by the task trace and the unified trace.
std::size_t write_task_events(json::Writer& w, int pid,
                              const std::vector<TaskSlice>& slices) {
  std::size_t count = 0;
  int max_worker = 0;
  for (const TaskSlice& s : slices) max_worker = std::max(max_worker, s.worker);
  write_meta(w, "process_name", pid, 0, "task pool");
  ++count;
  for (int worker = 0; worker <= max_worker; ++worker) {
    write_meta(w, "thread_name", pid, worker,
               worker == 0 ? std::string("master")
                           : "worker " + std::to_string(worker));
    ++count;
  }
  for (const TaskSlice& s : slices) {
    begin_complete(w, s.name, category_name(s.category), pid, s.worker,
                   s.start_s, s.end_s - s.start_s);
    w.key("args");
    w.begin_object();
    w.field("step", s.step);
    w.end_object();
    w.end_object();
    ++count;
  }
  return count;
}

}  // namespace

std::size_t write_chrome_trace(std::ostream& os, const Timeline& timeline) {
  const int p = timeline.spec().num_ranks;
  const int machine_pid = p;  // the step markers' synthetic process
  std::size_t count = 0;
  json::Writer w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  // Metadata: name only the processes/threads that actually have slices.
  std::vector<bool> seen(static_cast<std::size_t>(p) * 3, false);
  bool machine_seen = false;
  for (const Slice& s : timeline.slices()) {
    if (s.rank < 0) {
      machine_seen = true;
      continue;
    }
    seen[static_cast<std::size_t>(s.rank) * 3 +
         static_cast<std::size_t>(tid_of(s.track))] = true;
  }
  for (int r = 0; r < p; ++r) {
    bool any = false;
    for (int t = 0; t < 3; ++t) any = any || seen[static_cast<std::size_t>(r) * 3 + t];
    if (!any) continue;
    write_meta(w, "process_name", r, 0, "rank " + std::to_string(r));
    ++count;
    for (int t = 0; t < 3; ++t) {
      if (!seen[static_cast<std::size_t>(r) * 3 + t]) continue;
      write_meta(w, "thread_name", r, t,
                 track_name(static_cast<Slice::Track>(t)));
      ++count;
    }
  }
  if (machine_seen) {
    write_meta(w, "process_name", machine_pid, 0, "machine");
    ++count;
  }

  const auto& labels = timeline.labels();
  for (const Slice& s : timeline.slices()) {
    if (s.rank < 0) {
      // Superstep barrier: a machine-global instant marker.
      w.begin_object();
      w.field("name", "step " + std::to_string(s.step));
      w.field("ph", "i");
      w.field("s", "g");
      w.field("pid", machine_pid);
      w.field("tid", 0);
      w.field("ts", s.start_s * kSecondsToUs);
      w.end_object();
      ++count;
      continue;
    }
    const std::string_view name =
        (s.label >= 0 && static_cast<std::size_t>(s.label) < labels.size())
            ? std::string_view(labels[static_cast<std::size_t>(s.label)])
            : std::string_view(kind_name(s.kind));
    begin_complete(w, name, kind_name(s.kind), s.rank, tid_of(s.track),
                   s.start_s, s.duration_s);
    w.key("args");
    w.begin_object();
    w.field("step", s.step);
    w.field("words", s.words);
    w.field("flops", s.flops);
    w.end_object();
    w.end_object();
    ++count;
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return count;
}

bool write_chrome_trace_file(const std::string& path, const Timeline& timeline) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, timeline);
  return out.good();
}

std::size_t write_unified_trace(std::ostream& os,
                                const std::vector<TaskSlice>& task_slices,
                                const prof::Capture& capture) {
  constexpr int kPoolPid = 0;
  constexpr int kPhasePid = 1;
  constexpr int kCounterPid = 2;
  json::Writer w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  std::size_t count = write_task_events(w, kPoolPid, task_slices);

  // Phase spans: one trace thread per annotating thread. Span and task
  // timestamps come from two recordings started back-to-back by the same
  // caller, so the epochs line up to within the start-call skew.
  if (!capture.spans.empty()) {
    int max_thread = 0;
    for (const prof::SpanRecord& s : capture.spans) {
      max_thread = std::max(max_thread, s.thread);
    }
    write_meta(w, "process_name", kPhasePid, 0, "phases");
    ++count;
    for (int t = 0; t <= max_thread; ++t) {
      write_meta(w, "thread_name", kPhasePid, t,
                 t == 0 ? std::string("main") : "thread " + std::to_string(t));
      ++count;
    }
    for (const prof::SpanRecord& s : capture.spans) {
      begin_complete(w, s.name, "phase", kPhasePid, s.thread, s.t0,
                     s.t1 - s.t0);
      w.key("args");
      w.begin_object();
      w.field("step", s.step);
      w.end_object();
      w.end_object();
      ++count;
    }
  }

  // Counter tracks: Chrome "C" events render as stacked area charts.
  if (!capture.samples.empty()) {
    write_meta(w, "process_name", kCounterPid, 0, "counters");
    ++count;
    for (const prof::CounterSample& s : capture.samples) {
      w.begin_object();
      w.field("name", std::string_view(s.name));
      w.field("ph", "C");
      w.field("pid", kCounterPid);
      w.field("tid", 0);
      w.field("ts", s.t * kSecondsToUs);
      w.key("args");
      w.begin_object();
      w.field("value", s.value);
      w.end_object();
      w.end_object();
      ++count;
    }
  }

  w.end_array();
  w.end_object();
  os << "\n";
  return count;
}

bool write_unified_trace_file(const std::string& path,
                              const std::vector<TaskSlice>& task_slices,
                              const prof::Capture& capture) {
  std::ofstream out(path);
  if (!out) return false;
  write_unified_trace(out, task_slices, capture);
  return out.good();
}

}  // namespace conflux::sched
