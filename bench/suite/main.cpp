// vrmr_suite: runs one benchmark workload in this process and prints
// its metrics as one JSON object on the last line of stdout.
//
//   vrmr_suite --workload NAME --seed N [--seconds S] [--trace-dir DIR]
//
// Untimed set-up is measured on its own (setup_s). The timed phase —
// every Session::submit plus the drain, or every render_mapreduce of
// paper_frames — replays the seed's fixed request set until at least
// --seconds of host time are measured; simulated metrics come from the
// first pass and every replay must reproduce it exactly.
//
// With --trace-dir the run is the traced one: an untraced pass, a pass
// with both recorders attached, and the layer probe. It prints only the
// per-layer metrics and writes sim_trace.json, host_trace.json and
// layers.json into DIR. End-to-end metrics never come from this mode.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "suite.hpp"

namespace {

using namespace suite;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: vrmr_suite --workload orbit_warm|scan_mixed|farm_skewed|paper_frames"
               " --seed N [--seconds S] [--trace-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds >= 0.0))
        usage("bad --seconds " + value);
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

PassFn workload_fn(const std::string& name) {
  if (name == "orbit_warm") return run_orbit_warm;
  if (name == "scan_mixed") return run_scan_mixed;
  if (name == "farm_skewed") return run_farm_skewed;
  if (name == "paper_frames") return run_paper_frames;
  usage("unknown workload " + name);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const Metrics& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics.items()) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(metric.value) << ", \"unit\": " << json_string(metric.unit);
    if (metric.n >= 0) out << ", \"n\": " << metric.n;
    out << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::vector<double> submit_s;
  double serve_s = 0.0;
  double serve_cpu_s = 0.0;
  double stats_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  int passes = 0;

  void add(const Pass& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
    setup_s.insert(setup_s.end(), pass.setup_s.begin(), pass.setup_s.end());
    submit_s.insert(submit_s.end(), pass.submit_s.begin(), pass.submit_s.end());
    serve_s += pass.serve_s;
    serve_cpu_s += pass.serve_cpu_s;
    stats_s += pass.stats_s;
    frames += pass.frames;
    events += pass.events;
    ++passes;
  }
  double host_fps() const { return static_cast<double>(frames) / serve_s; }
};

/// Host metrics readable from any pass set: CPU use, event rate,
/// submit cost, stats() cost.
void record_host_metrics(const Totals& totals, Metrics& metrics) {
  const double nproc = std::max(1u, std::thread::hardware_concurrency());
  metrics.set("host.cpu_util", totals.serve_cpu_s / (totals.serve_s * nproc), "ratio");
  metrics.set("host.sim.events_per_s", static_cast<double>(totals.events) / totals.serve_s,
              "1/s");
  if (!totals.submit_s.empty()) {
    metrics.set("host.service.submit_us.p50", exact_percentile(totals.submit_s, 50.0) * 1e6,
                "us", static_cast<long>(totals.submit_s.size()));
    metrics.set("host.service.stats_ms", totals.stats_s / totals.passes * 1e3, "ms",
                totals.passes);
  }
}

void print_result(const Args& args, const char* mode, const Totals& totals,
                  const Metrics& metrics) {
  const bool correct = totals.failed == 0 && totals.errors.empty();
  for (const std::string& error : totals.errors) std::cout << "error: " << error << "\n";
  std::cout << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
            << ", \"mode\": " << json_string(mode) << ", \"passes\": " << totals.passes
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << totals.attempted << ", \"failed\": " << totals.failed
            << ", \"errors\": " << totals.errors.size()
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
}

int run_timed(const Args& args, const PassFn& fn) {
  Totals totals;
  const Pass first = fn(args.seed, Tracing{}, false);
  // Taken before any replay: the heap grows a little with every pass,
  // and how many passes fit in --seconds depends on the host's speed.
  const double peak_rss_mb = peak_rss_mib();
  totals.add(first);
  while (totals.serve_s < args.seconds) {
    const Pass replay = fn(args.seed, Tracing{}, false);
    if (replay.fingerprint != first.fingerprint)
      totals.errors.push_back("replay of the same seed delivered different records");
    totals.add(replay);
  }
  // setup_s is a median over at least three fresh set-ups and at least
  // one second of them.
  const auto setup_total = [&totals] {
    return std::accumulate(totals.setup_s.begin(), totals.setup_s.end(), 0.0);
  };
  while (totals.setup_s.size() < 3 || (setup_total() < 1.0 && totals.setup_s.size() < 25)) {
    const Pass setup = fn(args.seed, Tracing{}, true);
    totals.setup_s.insert(totals.setup_s.end(), setup.setup_s.begin(), setup.setup_s.end());
  }

  Metrics metrics;
  metrics.set("setup_s", exact_percentile(totals.setup_s, 50.0), "s",
              static_cast<long>(totals.setup_s.size()));
  metrics.set("host_fps", totals.host_fps(), "frames/s", static_cast<long>(totals.frames));
  metrics.set("host_serve_s", totals.serve_s, "s", totals.passes);
  metrics.set("failed_ratio",
              totals.attempted > 0
                  ? static_cast<double>(totals.failed) / static_cast<double>(totals.attempted)
                  : 0.0,
              "ratio", static_cast<long>(totals.attempted));
  metrics.merge(first.sim);
  record_host_metrics(totals, metrics);
  metrics.set("peak_rss_mb", peak_rss_mb, "MiB");
  std::cout << "note: arrivals are simulated timestamps, so the open-loop generator is "
               "never late\n";
  print_result(args, "timed", totals, metrics);
  return totals.failed == 0 && totals.errors.empty() ? 0 : 1;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int run_traced(const Args& args, const PassFn& fn) {
  Totals untraced;
  const Pass plain = fn(args.seed, Tracing{}, false);
  untraced.add(plain);

  obs::TraceRecorder sim_trace;
  obs::TraceRecorder host_trace;
  host_trace.set_process_name(0, "host: " + args.workload);
  host_trace.set_thread_name(0, 0, "main");
  HostSpans spans(&host_trace);
  Totals traced;
  Pass pass;
  {
    Span span(&spans, "pass");
    pass = fn(args.seed, Tracing{&sim_trace, &spans}, false);
  }
  traced.add(pass);
  if (pass.fingerprint != plain.fingerprint)
    traced.errors.push_back("attaching the trace recorder changed the delivered records");
  const Metrics probe = run_probe(pass.probe, spans, traced.errors);

  Metrics metrics = pass.sim;
  metrics.merge(probe);
  record_host_metrics(untraced, metrics);
  // Serving overhead: what the service path adds per frame over the
  // probe's bare pipeline (service workloads only).
  if (probe.has("host.mr.frame_ms") && !untraced.submit_s.empty()) {
    metrics.set("host.serving_overhead_ms_per_frame",
                untraced.serve_s / static_cast<double>(untraced.frames) * 1e3 -
                    probe.get("host.mr.frame_ms"),
                "ms");
  }
  metrics.set("obs.trace_overhead", untraced.host_fps() / traced.host_fps() - 1.0, "ratio");
  metrics.set("obs.trace_events", static_cast<double>(sim_trace.size()), "count");
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  traced.errors.insert(traced.errors.end(), untraced.errors.begin(), untraced.errors.end());

  // The per-layer table: every host span's count, total and self time.
  std::ostringstream layers;
  layers << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
         << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : spans.totals()) {
    layers << (first ? "" : ", ") << json_string(name) << ": {\"count\": " << t.count
           << ", \"total_ms\": " << json_number(t.total_s * 1e3)
           << ", \"self_ms\": " << json_number(t.self_s * 1e3) << "}";
    first = false;
  }
  layers << "}, \"metrics\": " << metrics_json(metrics) << "}\n";
  const std::string dir = args.trace_dir + "/";
  if (!sim_trace.write_file(dir + "sim_trace.json") ||
      !host_trace.write_file(dir + "host_trace.json") ||
      !write_text(dir + "layers.json", layers.str())) {
    traced.errors.push_back("cannot write the trace files into " + args.trace_dir);
  }
  print_result(args, "traced", traced, metrics);
  return traced.failed == 0 && traced.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const PassFn fn = workload_fn(args.workload);
  try {
    return args.trace_dir.empty() ? run_timed(args, fn) : run_traced(args, fn);
  } catch (const std::exception& error) {
    std::cerr << "vrmr_suite: " << error.what() << "\n";
    return 1;
  }
}
