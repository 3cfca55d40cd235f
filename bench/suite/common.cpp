#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <set>
#include <sstream>
#include <tuple>

#include "sim/engine.hpp"
#include "suite.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "volren/bricking.hpp"

namespace suite {

// --- metrics -----------------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit, long n) {
  for (auto& [key, metric] : items_) {
    if (key == name) {
      metric = Metric{value, unit, n};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit, n});
}

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, metric] : other.items()) set(name, metric.value, metric.unit, metric.n);
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const auto& item) { return item.first == name; });
}

double Metrics::get(const std::string& name) const {
  for (const auto& [key, metric] : items_) {
    if (key == name) return metric.value;
  }
  VRMR_CHECK_MSG(false, "metric '" << name << "' was never set");
  return 0.0;
}

double exact_percentile(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : percentile(samples, p);
}

void set_p50_p90_ms(Metrics& metrics, const std::string& prefix,
                    const std::vector<double>& seconds) {
  if (seconds.empty()) return;
  const long n = static_cast<long>(seconds.size());
  metrics.set(prefix + ".p50", exact_percentile(seconds, 50.0) * 1e3, "ms", n);
  metrics.set(prefix + ".p90", exact_percentile(seconds, 90.0) * 1e3, "ms", n);
}

// --- host timeline -----------------------------------------------------------

namespace {
const Stopwatch& process_clock() {
  static const Stopwatch clock;
  return clock;
}
}  // namespace

double host_now_s() { return process_clock().elapsed_seconds(); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void HostSpans::begin(const std::string& name) {
  if (recorder_ != nullptr) recorder_->begin(host_now_s(), 0, 0, name, "host");
  stack_.push_back(Open{name, Stopwatch{}, 0.0});
}

double HostSpans::end() {
  VRMR_CHECK_MSG(!stack_.empty(), "HostSpans::end without an open span");
  Open open = std::move(stack_.back());
  stack_.pop_back();
  const double duration = open.watch.elapsed_seconds();
  if (recorder_ != nullptr) recorder_->end(host_now_s(), 0, 0);
  Totals& totals = totals_[open.name];
  totals.count += 1;
  totals.total_s += duration;
  totals.self_s += std::max(0.0, duration - open.child_s);
  if (!stack_.empty()) stack_.back().child_s += duration;
  return duration;
}

// --- request generation --------------------------------------------------------

Pcg32 stream_for(std::uint64_t seed, std::uint64_t component) {
  SplitMix64 mix(seed * 0x100000001b3ULL + component);
  return Pcg32(mix.next(), component + 1);
}

std::vector<double> periodic_arrivals(Pcg32& rng, double t0_s, double rate_hz, int session,
                                      int sessions, int frames) {
  const double period = static_cast<double>(sessions) / rate_hz;
  const double phase = period * static_cast<double>(session) / static_cast<double>(sessions);
  std::vector<double> arrivals;
  for (int k = 0; k < frames; ++k) {
    const double jitter = 0.25 * period * (2.0 * rng.next_double() - 1.0);
    arrivals.push_back(t0_s + period + phase + period * static_cast<double>(k) + jitter);
  }
  return arrivals;
}

int decimation_for(Int3 dims, int stored_edge) {
  const int max_dim = std::max({dims.x, dims.y, dims.z});
  return std::max(1, max_dim / stored_edge);
}

double brick_repeat_share(
    const std::vector<std::pair<const volren::Volume*, volren::RenderOptions>>& requests,
    int total_gpus) {
  std::set<std::tuple<const volren::Volume*, std::uint64_t, int>> seen;
  std::uint64_t planned = 0, repeated = 0;
  for (const auto& [volume, options] : requests) {
    const volren::BrickLayout layout = volren::choose_layout(*volume, options, total_gpus);
    const std::uint64_t signature = layout.signature();
    for (const volren::BrickInfo& brick : layout.bricks()) {
      ++planned;
      if (!seen.insert({volume, signature, brick.id}).second) ++repeated;
    }
  }
  return planned > 0 ? static_cast<double>(repeated) / static_cast<double>(planned) : 0.0;
}

std::uint64_t mix_hash(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix_hash(std::uint64_t h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return mix_hash(h, bits);
}

// 1e-4 with early ray termination off, widened by the transparency
// budget when it is on.
double reference_tolerance(const volren::RenderOptions& options) {
  const double ert = options.cast.ert_threshold;
  return ert >= 1.0 ? 1e-4 : 3.0 * (1.0 - ert) + 1e-4;
}

// --- oracle ------------------------------------------------------------------

int Oracle::add_session(service::Priority priority) {
  SessionState state;
  state.priority = priority;
  sessions_.push_back(std::move(state));
  return static_cast<int>(sessions_.size()) - 1;
}

void Oracle::submitted(int session, const service::RenderRequest& request, double due_s,
                       std::uint64_t frame_id, bool capture) {
  VRMR_CHECK(session >= 0 && session < static_cast<int>(sessions_.size()));
  sessions_[static_cast<std::size_t>(session)].expected.push_back(
      Expected{request, due_s, frame_id, capture});
  ++attempted_;
}

void Oracle::on_tile(const service::TileRecord& tile) {
  if (tile.session < 0 || tile.session >= static_cast<int>(sessions_.size())) return;
  const SessionState& state = sessions_[static_cast<std::size_t>(tile.session)];
  const bool wanted = state.capture_next ||
                      (state.next < state.expected.size() && state.expected[state.next].capture);
  if (!wanted) return;
  Captured& captured = in_flight_[{tile.session, tile.frame_id}];
  captured.pixels.insert(captured.pixels.end(), tile.pixels.begin(), tile.pixels.end());
  captured.tiles += 1;
}

void Oracle::on_frame(const service::FrameRecord& record) {
  const auto key = std::make_pair(record.session, record.frame_id);
  auto captured = in_flight_.find(key);

  fingerprint_ = mix_hash(fingerprint_, static_cast<std::uint64_t>(record.session));
  fingerprint_ = mix_hash(fingerprint_, record.finish_s);
  fingerprint_ = mix_hash(fingerprint_, record.arrival_s);
  fingerprint_ = mix_hash(fingerprint_, record.first_tile_s);
  fingerprint_ = mix_hash(fingerprint_, static_cast<std::uint64_t>(record.lod));
  fingerprint_ = mix_hash(fingerprint_, record.stats.total_samples);
  fingerprint_ = mix_hash(fingerprint_, record.cache_hits);

  if (record.refines_frame_id >= 0) {
    // A refinement re-renders an already delivered preview; it is not a
    // client submission.
    if (captured != in_flight_.end()) in_flight_.erase(captured);
    return;
  }
  if (record.session < 0 || record.session >= static_cast<int>(sessions_.size())) {
    errors_.push_back("delivery for unknown session " + std::to_string(record.session));
    ++failed_;
    return;
  }
  SessionState& state = sessions_[static_cast<std::size_t>(record.session)];
  if (state.next >= state.expected.size()) {
    errors_.push_back("session " + std::to_string(record.session) +
                      ": more deliveries than submissions");
    ++failed_;
    if (captured != in_flight_.end()) in_flight_.erase(captured);
    return;
  }
  const int index = static_cast<int>(state.next++);
  const Expected& expected = state.expected[static_cast<std::size_t>(index)];

  bool in_order = true;
  if (frame_ids_stable_) {
    in_order = record.frame_id == expected.frame_id;
  } else {
    in_order = record.arrival_s >= expected.due_s && record.arrival_s >= state.last_arrival_s;
  }
  state.last_arrival_s = record.arrival_s;
  if (!in_order) {
    std::ostringstream msg;
    msg << "session " << record.session << " delivery " << index
        << " out of submission order (frame " << record.frame_id << ", arrival "
        << record.arrival_s << ", due " << expected.due_s << ")";
    errors_.push_back(msg.str());
    ++failed_;
  }

  if (expected.capture || state.capture_next) {
    // Only full-quality frames are bit-comparable; a degraded preview
    // (or a frame whose tiles were not seen) hands the check onward.
    if (record.lod == 0 && captured != in_flight_.end() && captured->second.tiles == record.tiles) {
      captured->second.session = record.session;
      captured->second.index = index;
      to_verify_.push_back(std::move(captured->second));
      state.capture_next = false;
    } else {
      state.capture_next = true;
    }
  }
  if (captured != in_flight_.end()) in_flight_.erase(captured);

  Client client;
  client.session = record.session;
  client.index = index;
  client.priority = state.priority;
  client.due_s = expected.due_s;
  client.record = record;
  client.record.image = volren::Image{};
  delivered_.push_back(std::move(client));
}

std::uint64_t Oracle::finish(std::vector<std::string>& errors) {
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const SessionState& state = sessions_[s];
    if (state.next < state.expected.size()) {
      const std::size_t missing = state.expected.size() - state.next;
      errors_.push_back("session " + std::to_string(s) + ": " + std::to_string(missing) +
                        " frame(s) never delivered");
      failed_ += missing;
    }
  }
  for (const Captured& captured : to_verify_) {
    const Expected& expected = sessions_[static_cast<std::size_t>(captured.session)]
                                   .expected[static_cast<std::size_t>(captured.index)];
    const volren::RenderOptions& options = expected.request.options;
    sim::Engine engine;
    cluster::Cluster cluster(engine, verify_cluster_);
    const volren::RenderResult unserved =
        volren::render_mapreduce(cluster, *expected.request.volume, options);
    volren::Image served(options.image_width, options.image_height, options.background);
    for (const volren::FinishedPixel& pixel : captured.pixels) {
      served.at_index(pixel.key) = pixel.rgb;
    }
    const double diff = volren::compare_images(served, unserved.image).max_abs;
    if (diff != 0.0) {
      std::ostringstream msg;
      msg << "session " << captured.session << " frame " << captured.index
          << ": served pixels differ from the unserved render (max abs " << diff << ")";
      errors_.push_back(msg.str());
      ++failed_;
    } else {
      ++verified_;
    }
  }
  errors.insert(errors.end(), errors_.begin(), errors_.end());
  return std::min(failed_, attempted_);
}

// --- the timed phase --------------------------------------------------------------

std::uint64_t timed_submit(service::Session& session, const service::RenderRequest& request,
                           const Tracing& tracing, Pass& pass) {
  Stopwatch watch;
  std::uint64_t id = 0;
  {
    Span span(tracing.host, "service.submit");
    id = session.submit(request);
  }
  pass.submit_s.push_back(watch.elapsed_seconds());
  return id;
}

service::ServiceStats serve(service::RenderService& service,
                            std::vector<service::Session>& sessions,
                            const std::vector<Planned>& planned, int captures, Oracle& oracle,
                            const Tracing& tracing, Pass& pass) {
  const std::size_t every = planned.size() / static_cast<std::size_t>(captures);
  sim::Engine& engine = service.cluster().engine();
  const std::uint64_t events_before = engine.events_processed();
  const double cpu_before = process_cpu_s();
  Stopwatch serve_watch;
  {
    Span serve_span(tracing.host, "serve");
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const Planned& p = planned[i];
      const std::uint64_t id =
          timed_submit(sessions[static_cast<std::size_t>(p.session)], p.request, tracing, pass);
      oracle.submitted(p.session, p.request, p.request.arrival_s, id, i % every == every / 2);
    }
    Span drain_span(tracing.host, "service.drain");
    service.drain();
  }
  pass.serve_s += serve_watch.elapsed_seconds();
  pass.serve_cpu_s += process_cpu_s() - cpu_before;
  pass.events += engine.events_processed() - events_before;

  Stopwatch stats_watch;
  service::ServiceStats stats;
  {
    Span span(tracing.host, "service.stats");
    stats = service.stats();
  }
  pass.stats_s += stats_watch.elapsed_seconds();
  {
    Span span(tracing.host, "verify");
    pass.failed += oracle.finish(pass.errors);
  }
  pass.attempted += oracle.attempted();
  pass.frames += oracle.delivered().size();
  pass.fingerprint = mix_hash(pass.fingerprint, oracle.fingerprint());
  return stats;
}

// --- per-layer extraction --------------------------------------------------------

void record_layer_metrics(const std::vector<Oracle::Client>& frames, double makespan_s,
                          int total_gpus, Metrics& metrics) {
  using obs::PathSegment;
  struct Segment {
    PathSegment segment;
    const char* name;
  };
  static constexpr Segment kSegments[] = {
      {PathSegment::QueueWait, "queue_wait"}, {PathSegment::StageMap, "stage_map"},
      {PathSegment::Send, "send"},            {PathSegment::SortWait, "sort_wait"},
      {PathSegment::Sort, "sort"},            {PathSegment::Reduce, "reduce"},
      {PathSegment::Delivery, "delivery"},
  };
  for (const service::Priority priority :
       {service::Priority::Interactive, service::Priority::Batch}) {
    const std::string cls = service::to_string(priority);
    for (const Segment& segment : kSegments) {
      std::vector<double> seconds;
      for (const Oracle::Client& frame : frames) {
        if (frame.priority == priority && frame.record.critical_path.valid)
          seconds.push_back(frame.record.critical_path.segment_s(segment.segment));
      }
      set_p50_p90_ms(metrics, std::string("path.") + segment.name + "_ms." + cls, seconds);
    }
  }

  std::vector<double> map_s, partition_io_s, sort_s, reduce_s;
  mr::JobStats sum;
  for (const Oracle::Client& frame : frames) {
    const mr::JobStats& s = frame.record.stats;
    map_s.push_back(s.stage.map_s);
    partition_io_s.push_back(s.stage.partition_io_s);
    sort_s.push_back(s.stage.sort_s);
    reduce_s.push_back(s.stage.reduce_s);
    sum.total_samples += s.total_samples;
    sum.fragments += s.fragments;
    sum.placeholders += s.placeholders;
    sum.combine_input_pairs += s.combine_input_pairs;
    sum.combine_output_pairs += s.combine_output_pairs;
    sum.chunks_culled += s.chunks_culled;
    sum.bytes_net += s.bytes_net;
    sum.bytes_net_inter += s.bytes_net_inter;
    sum.net_messages += s.net_messages;
    sum.bytes_disk += s.bytes_disk;
    sum.gpu_busy_s += s.gpu_busy_s;
    sum.pcie_busy_s += s.pcie_busy_s;
    sum.nic_busy_s += s.nic_busy_s;
    sum.disk_busy_s += s.disk_busy_s;
    sum.cpu_busy_s += s.cpu_busy_s;
    sum.decompress_s_total += s.decompress_s_total;
  }
  if (frames.empty()) return;
  const long n = static_cast<long>(frames.size());
  const double per = 1.0 / static_cast<double>(n);
  set_p50_p90_ms(metrics, "stage.map_ms", map_s);
  set_p50_p90_ms(metrics, "stage.partition_io_ms", partition_io_s);
  set_p50_p90_ms(metrics, "stage.sort_ms", sort_s);
  set_p50_p90_ms(metrics, "stage.reduce_ms", reduce_s);
  metrics.set("mr.samples_per_frame", static_cast<double>(sum.total_samples) * per, "count", n);
  metrics.set("mr.fragments_per_frame", static_cast<double>(sum.fragments) * per, "count", n);
  const double pairs = static_cast<double>(sum.fragments + sum.placeholders);
  metrics.set("mr.placeholder_share",
              pairs > 0 ? static_cast<double>(sum.placeholders) / pairs : 0.0, "ratio", n);
  // Without a combiner every pair survives.
  metrics.set("mr.combine_survival",
              sum.combine_input_pairs > 0 ? static_cast<double>(sum.combine_output_pairs) /
                                                static_cast<double>(sum.combine_input_pairs)
                                          : 1.0,
              "ratio", n);
  metrics.set("mr.chunks_culled_per_frame", static_cast<double>(sum.chunks_culled) * per,
              "count", n);
  metrics.set("mr.net_bytes_per_frame", static_cast<double>(sum.bytes_net) * per, "B", n);
  metrics.set("mr.net_inter_bytes_per_frame", static_cast<double>(sum.bytes_net_inter) * per,
              "B", n);
  metrics.set("mr.net_messages_per_frame", static_cast<double>(sum.net_messages) * per,
              "count", n);
  metrics.set("cluster.gpu_busy_ms_per_frame", sum.gpu_busy_s * per * 1e3, "ms", n);
  metrics.set("cluster.pcie_busy_ms_per_frame", sum.pcie_busy_s * per * 1e3, "ms", n);
  metrics.set("cluster.nic_busy_ms_per_frame", sum.nic_busy_s * per * 1e3, "ms", n);
  metrics.set("cluster.disk_busy_ms_per_frame", sum.disk_busy_s * per * 1e3, "ms", n);
  metrics.set("cluster.cpu_busy_ms_per_frame", sum.cpu_busy_s * per * 1e3, "ms", n);
  if (makespan_s > 0.0 && total_gpus > 0) {
    metrics.set("cluster.gpu_utilization",
                sum.gpu_busy_s / (makespan_s * static_cast<double>(total_gpus)), "ratio", n);
  }
  metrics.set("io.disk_bytes_per_frame", static_cast<double>(sum.bytes_disk) * per, "B", n);
  metrics.set("compress.decompress_ms_per_frame", sum.decompress_s_total * per * 1e3, "ms", n);
}

void record_service_metrics(const service::ServiceStats& stats,
                            const std::vector<Oracle::Client>& frames, Metrics& metrics) {
  metrics.set("service.preemptions", static_cast<double>(stats.preemptions), "count");
  metrics.set("service.frames_degraded", static_cast<double>(stats.frames_degraded), "count");
  metrics.set("service.refinements_served", static_cast<double>(stats.refinements_served),
              "count");

  long interactive = 0, levels = 0;
  std::uint64_t hits = 0, misses = 0;
  for (const Oracle::Client& frame : frames) {
    if (frame.priority != service::Priority::Interactive) continue;
    ++interactive;
    levels += frame.record.lod;
    hits += frame.record.cache_hits;
    misses += frame.record.cache_misses;
  }
  if (interactive > 0) {
    metrics.set("lod.mean_level_interactive",
                static_cast<double>(levels) / static_cast<double>(interactive), "level",
                interactive);
  }

  const service::BrickCacheStats& cache = stats.cache;
  metrics.set("cache.hit_rate", cache.hit_rate(), "ratio");
  if (hits + misses > 0) {
    metrics.set("cache.interactive_hit_rate",
                static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio");
  }
  metrics.set("cache.evictions", static_cast<double>(cache.evictions), "count");
  metrics.set("cache.b1_ghost_hits", static_cast<double>(cache.b1_ghost_hits), "count");
  metrics.set("cache.b2_ghost_hits", static_cast<double>(cache.b2_ghost_hits), "count");
  metrics.set("cache.prefetch_admissions", static_cast<double>(cache.prefetch_admissions),
              "count");
  if (stats.frames_total > 0) {
    metrics.set("cache.bytes_saved_per_frame",
                static_cast<double>(cache.bytes_saved) / stats.frames_total, "B");
  }
  if (cache.logical_bytes_admitted > 0) {
    metrics.set("compress.stored_over_logical",
                static_cast<double>(cache.stored_bytes_admitted) /
                    static_cast<double>(cache.logical_bytes_admitted),
                "ratio");
  }

  std::uint64_t quanta = 0;
  for (const service::ServiceWindow& window : stats.windows) quanta += window.quanta_issued;
  metrics.set("fault.injected", static_cast<double>(stats.faults_injected), "count");
  metrics.set("fault.quanta_retried", static_cast<double>(stats.quanta_retried), "count");
  if (quanta > 0) {
    metrics.set("fault.retry_share",
                static_cast<double>(stats.quanta_retried) / static_cast<double>(quanta),
                "ratio");
  }
}

}  // namespace suite
