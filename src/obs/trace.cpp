#include "obs/trace.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/log.hpp"

namespace vrmr::obs {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void TraceRecorder::begin(double ts_s, int pid, int tid, std::string name,
                          std::string cat, TraceArgs args) {
  events_.push_back(TraceEvent{'B', ts_s, pid, tid, 0, std::move(name),
                               std::move(cat), std::move(args)});
}

void TraceRecorder::end(double ts_s, int pid, int tid, TraceArgs args) {
  events_.push_back(TraceEvent{'E', ts_s, pid, tid, 0, {}, {}, std::move(args)});
}

void TraceRecorder::instant(double ts_s, int pid, int tid, std::string name,
                            std::string cat, TraceArgs args) {
  events_.push_back(TraceEvent{'i', ts_s, pid, tid, 0, std::move(name),
                               std::move(cat), std::move(args)});
}

void TraceRecorder::async_begin(double ts_s, int pid, std::uint64_t id,
                                std::string name, std::string cat,
                                TraceArgs args) {
  events_.push_back(TraceEvent{'b', ts_s, pid, 0, id, std::move(name),
                               std::move(cat), std::move(args)});
}

void TraceRecorder::async_end(double ts_s, int pid, std::uint64_t id,
                              std::string name, std::string cat) {
  events_.push_back(
      TraceEvent{'e', ts_s, pid, 0, id, std::move(name), std::move(cat), {}});
}

void TraceRecorder::set_process_name(int pid, const std::string& name) {
  events_.push_back(
      TraceEvent{'M', 0.0, pid, 0, 0, "process_name", {}, {{"name", name}}});
}

void TraceRecorder::set_thread_name(int pid, int tid, const std::string& name) {
  events_.push_back(
      TraceEvent{'M', 0.0, pid, tid, 0, "thread_name", {}, {{"name", name}}});
}

std::string TraceRecorder::to_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 32);
  out += "{\"traceEvents\":[\n";
  char buf[64];
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"";
    out += ev.ph;
    out += "\",\"ts\":";
    // Simulated seconds -> microseconds (the trace-event unit).
    std::snprintf(buf, sizeof(buf), "%.3f", ev.ts_s * 1e6);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d", ev.pid, ev.tid);
    out += buf;
    if (ev.ph == 'b' || ev.ph == 'e') {
      std::snprintf(buf, sizeof(buf), ",\"id\":\"%" PRIu64 "\"", ev.id);
      out += buf;
    }
    if (!ev.name.empty() || ev.ph != 'E') {
      out += ",\"name\":\"";
      append_escaped(out, ev.name);
      out += '"';
    }
    if (!ev.cat.empty()) {
      out += ",\"cat\":\"";
      append_escaped(out, ev.cat);
      out += '"';
    }
    if (ev.ph == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : ev.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        out += '"';
        append_escaped(out, key);
        out += "\":\"";
        append_escaped(out, value);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    VRMR_ERROR("obs") << "cannot open trace file '" << path << "' for writing";
    return false;
  }
  const std::string json = to_json();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  file.flush();
  if (!file) {
    VRMR_ERROR("obs") << "short write to trace file '" << path << "'";
    return false;
  }
  VRMR_INFO("obs") << "wrote " << events_.size() << " trace events to " << path;
  return true;
}

}  // namespace vrmr::obs
