#pragma once

// Shared pieces of the benchmark suite (see README.md): the metric sink
// every workload fills, spans on the host timeline, the client-side
// correctness oracle, and the per-layer numbers read from the records
// the serving layers already hand to clients.
//
// The suite times only calls into public entry points. Simulated
// metrics come from FrameRecords / JobStats / *Stats structs and repeat
// exactly for a seed; host metrics come from util/stopwatch.hpp spans
// around those calls.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/trace.hpp"
#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "service/session.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "volren/renderer.hpp"
#include "volren/volume.hpp"

namespace suite {

using namespace vrmr;

// --- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Sample count behind a percentile or mean; -1 when not a statistic.
  long n = -1;
};

/// Insertion-ordered name -> metric map (the output order).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           long n = -1);
  void merge(const Metrics& other);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  const std::vector<std::pair<std::string, Metric>>& items() const { return items_; }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// Exact percentile of a sample set (util/stats percentile); 0 when empty.
double exact_percentile(const std::vector<double>& samples, double p);

/// Sets `<prefix>.p50` and `<prefix>.p90` (exact, with n) from seconds,
/// reported in milliseconds.
void set_p50_p90_ms(Metrics& metrics, const std::string& prefix,
                    const std::vector<double>& seconds);

// --- host timeline -----------------------------------------------------------

/// Host wall seconds since the process started (steady clock).
double host_now_s();
/// Process CPU seconds (user + system, all threads).
double process_cpu_s();
/// ru_maxrss in MiB.
double peak_rss_mib();

/// Nested spans on the host timeline. Durations always accumulate into
/// per-name totals (count, total, self = total minus child spans); when
/// a recorder is attached every span is also written as a B/E pair on
/// pid 0, tid 0, with host seconds as timestamps.
class HostSpans {
 public:
  struct Totals {
    long count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit HostSpans(obs::TraceRecorder* recorder = nullptr) : recorder_(recorder) {}

  void begin(const std::string& name);
  /// Closes the innermost span; returns its duration in seconds.
  double end();
  const std::map<std::string, Totals>& totals() const { return totals_; }

 private:
  struct Open {
    std::string name;
    Stopwatch watch;
    double child_s = 0.0;
  };
  obs::TraceRecorder* recorder_;
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
};

/// RAII span; a null HostSpans records nothing.
class Span {
 public:
  Span(HostSpans* spans, const std::string& name) : spans_(spans) {
    if (spans_ != nullptr) spans_->begin(name);
  }
  ~Span() {
    if (spans_ != nullptr) spans_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  HostSpans* spans_;
};

// --- workload plumbing ---------------------------------------------------------

/// What one pass records on the side: the simulated-timeline recorder
/// (attached through set_trace / RenderOptions::trace) and the host
/// spans. Both null in an untraced pass.
struct Tracing {
  obs::TraceRecorder* sim = nullptr;
  HostSpans* host = nullptr;
};

/// One request the layer probe replays through the lower-level entry
/// points (choose_layout, materialize, cast_brick, plan_frame, ...).
struct ProbeRequest {
  const volren::Volume* volume = nullptr;
  volren::RenderOptions options;
  cluster::ClusterConfig cluster;
  /// The codec the serving run compressed with (None: no analysis).
  compress::Codec codec = compress::Codec::None;
};

/// The outcome of one pass over a workload's fixed, seeded request set.
struct Pass {
  // Correctness (client frames only; refinements are not submissions).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Host clock.
  std::vector<double> setup_s;  ///< one entry per fresh set-up
  double serve_s = 0.0;         ///< wall seconds of the timed phase
  double serve_cpu_s = 0.0;     ///< process CPU seconds of the timed phase
  std::uint64_t frames = 0;     ///< client frames delivered in the timed phase
  std::uint64_t events = 0;     ///< DES events processed in the timed phase
  std::vector<double> submit_s; ///< host seconds per Session::submit
  double stats_s = 0.0;         ///< host seconds of the stats() calls

  // Simulated clock: deterministic for a seed.
  Metrics sim;
  /// Hash of every delivered record; two passes of one seed must agree.
  std::uint64_t fingerprint = 0;

  // Inputs for the layer probe; `volumes` keeps them alive.
  std::vector<std::shared_ptr<const volren::Volume>> volumes;
  std::vector<ProbeRequest> probe;
};

/// Runs one pass. With `setup_only`, builds the first fresh set-up,
/// records its time in setup_s and returns without serving.
using PassFn = std::function<Pass(std::uint64_t seed, const Tracing& tracing,
                                  bool setup_only)>;

Pass run_orbit_warm(std::uint64_t seed, const Tracing& tracing, bool setup_only);
Pass run_scan_mixed(std::uint64_t seed, const Tracing& tracing, bool setup_only);
Pass run_farm_skewed(std::uint64_t seed, const Tracing& tracing, bool setup_only);
Pass run_paper_frames(std::uint64_t seed, const Tracing& tracing, bool setup_only);

/// Replays `requests` through the lower-level public entry points on a
/// scratch cluster, one host span each, and returns the host per-layer
/// metrics (host.volren.*, host.mr.*, host.lod.*, host.compress.*).
/// Appends an error when a quantum-driven frame differs from
/// render_mapreduce of the same request.
Metrics run_probe(const std::vector<ProbeRequest>& requests, HostSpans& spans,
                  std::vector<std::string>& errors);

/// Pipeline-equivalence tolerance against render_reference
/// (tests/volren/test_pipeline_equivalence.cpp).
double reference_tolerance(const volren::RenderOptions& options);

// --- request generation --------------------------------------------------------

/// Seeded stream for one component of a workload (same seed, same stream
/// => same draws).
Pcg32 stream_for(std::uint64_t seed, std::uint64_t component);
/// Arrival times of one of `sessions` staggered periodic clients sharing
/// an aggregate `rate_hz`: the client asks for a frame every
/// sessions / rate_hz seconds at its own phase, each arrival jittered
/// uniformly by up to a quarter period (so a session's arrivals stay
/// ordered). An interactive viewer requests frames at its display rate,
/// which is why this, and not a Poisson stream, is the open loop here:
/// with a few hundred frames Poisson bursts made the simulated p50 vary
/// 2.5x between seeds.
std::vector<double> periodic_arrivals(Pcg32& rng, double t0_s, double rate_hz, int session,
                                      int sessions, int frames);

/// Functional decimation keeping the stored grid at about `stored_edge`
/// voxels on the longest axis (logical sizes drive every simulated cost).
int decimation_for(Int3 dims, int stored_edge);

/// The share of planned (volume, layout, brick) map inputs that were
/// already planned by an earlier request, over `requests` in order.
double brick_repeat_share(
    const std::vector<std::pair<const volren::Volume*, volren::RenderOptions>>& requests,
    int total_gpus);

// --- the client-side oracle ----------------------------------------------------

/// Checks the serving contract from the client's side, and collects the
/// delivered records the metrics are computed from.
///   * every submitted client frame is delivered exactly once, in
///     per-session submission order;
///   * frames marked for capture (full quality) are rebuilt from their
///     on_tile pixels and must be bit-identical to an unserved
///     render_mapreduce of the same request.
/// A single RenderService keeps the frame id submit returned; a frontend
/// renumbers frames that migrate, so there order is checked by arrival
/// (never earlier than due, never decreasing) and by the captured pixels.
class Oracle {
 public:
  struct Client {
    int session = -1;
    int index = -1;  ///< position in the session's submission order
    service::Priority priority = service::Priority::Interactive;
    double due_s = 0.0;  ///< generated (open-loop) arrival time
    service::FrameRecord record;  ///< as delivered (image not kept)
  };

  Oracle(bool frame_ids_stable, cluster::ClusterConfig verify_cluster)
      : frame_ids_stable_(frame_ids_stable), verify_cluster_(std::move(verify_cluster)) {}

  /// Register the next client session (indices follow open order).
  int add_session(service::Priority priority);
  /// Record one submission in order; `capture` asks for the pixel check
  /// (moved to the session's next frame when this one degrades).
  void submitted(int session, const service::RenderRequest& request, double due_s,
                 std::uint64_t frame_id, bool capture);

  void on_tile(const service::TileRecord& tile);
  void on_frame(const service::FrameRecord& record);

  /// After serving: count undelivered frames and run the pixel checks
  /// (outside the timed phase). Returns the number of failed frames.
  std::uint64_t finish(std::vector<std::string>& errors);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t verified() const { return verified_; }
  const std::vector<Client>& delivered() const { return delivered_; }
  /// Delivered records in delivery order, hashed (replay check).
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Expected {
    service::RenderRequest request;
    double due_s = 0.0;
    std::uint64_t frame_id = 0;
    bool capture = false;
  };
  struct SessionState {
    service::Priority priority = service::Priority::Interactive;
    std::vector<Expected> expected;
    std::size_t next = 0;  ///< next delivery index
    double last_arrival_s = 0.0;
    bool capture_next = false;  ///< a degraded capture moved here
  };
  struct Captured {
    int session = -1;
    int index = -1;
    std::vector<volren::FinishedPixel> pixels;
    int tiles = 0;
  };

  bool frame_ids_stable_;
  cluster::ClusterConfig verify_cluster_;
  std::vector<SessionState> sessions_;
  /// Tiles of in-flight frames, keyed (session, frame id).
  std::map<std::pair<int, std::uint64_t>, Captured> in_flight_;
  std::vector<Captured> to_verify_;
  std::vector<Client> delivered_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
  std::vector<std::string> errors_;
};

// --- the timed phase --------------------------------------------------------------

/// One generated client request, for the session at `session` (open
/// order).
struct Planned {
  int session = -1;
  service::RenderRequest request;
};

/// Session::submit as one "service.submit" span; records its host
/// seconds in pass.submit_s and returns the frame id.
std::uint64_t timed_submit(service::Session& session, const service::RenderRequest& request,
                           const Tracing& tracing, Pass& pass);

/// The timed phase on one RenderService: submit `planned` in order and
/// drain (serve_s, serve_cpu_s, events); then, off the clock, stats()
/// and the oracle's checks (attempted, failed, frames, fingerprint).
/// `captures` requests spread evenly over `planned` are pixel-checked.
service::ServiceStats serve(service::RenderService& service,
                            std::vector<service::Session>& sessions,
                            const std::vector<Planned>& planned, int captures, Oracle& oracle,
                            const Tracing& tracing, Pass& pass);

// --- per-layer extraction --------------------------------------------------------

/// Critical-path segments per class, mr dataflow counters, cluster busy
/// time and io bytes per frame, from delivered client records.
void record_layer_metrics(const std::vector<Oracle::Client>& frames, double makespan_s,
                          int total_gpus, Metrics& metrics);

/// Service / lod / brick_cache / fault counters from a ServiceStats.
void record_service_metrics(const service::ServiceStats& stats,
                            const std::vector<Oracle::Client>& frames, Metrics& metrics);

/// Hash helper for fingerprints.
std::uint64_t mix_hash(std::uint64_t h, double value);
std::uint64_t mix_hash(std::uint64_t h, std::uint64_t value);

}  // namespace suite
