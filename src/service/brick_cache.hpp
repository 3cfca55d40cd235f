#pragma once

// Per-GPU brick residency cache for the render service.
//
// The paper stages every brick onto its GPU anew each frame; real
// serving workloads (turntable orbits, interactive sessions) re-render
// the same volume dozens of times in a row, so most of a frame's H2D
// traffic restages bytes the device already holds. Following the
// paging/residency designs of Zellmann et al. (VDB paging) and Hassan
// et al. (session-oriented distributed rendering), this cache tracks
// which (volume, brick) payloads are resident per GPU under a byte
// budget derived from gpusim::DeviceProps VRAM, and lets mr::Job skip
// disk + H2D staging for hits (JobConfig::staging_hook).
//
// Two admission/eviction policies (CachePolicy):
//
//   Lru — plain least-recently-used over one resident list (the
//   original behaviour, and still the default). Recency-only: a batch
//   session's one-pass streaming scan evicts an interactive session's
//   hot working set brick by brick, even though every scan brick is
//   touched exactly once and every hot brick many times.
//
//   Arc — a ghost-list adaptive replacement cache (Megiddo & Modha)
//   over BrickKey, generalized to byte-weighted entries. Residency is
//   split into T1 (bricks demanded exactly once — recency) and T2
//   (bricks demanded at least twice — frequency); B1/B2 are *ghost*
//   lists remembering the keys (not payloads) most recently evicted
//   from T1/T2. A demand miss whose key ghost-hits B1 means "the
//   recency list was too small" and nudges the adaptive target p (the
//   byte share of the budget T1 aims for) up; a B2 ghost hit nudges it
//   down. Eviction takes from T1 while it holds more than p bytes,
//   else from T2 — so a one-pass scan churns through T1 and can never
//   flush twice-touched bricks out of T2 (scan resistance), while a
//   genuine working-set shift migrates the budget via ghost hits.
//
// Residency is *physical*: keys are (volume id, brick id, layout
// signature), so two sessions orbiting the same volume legitimately
// share warm bricks, while distinct volumes never alias even when
// their brick ids coincide (cross-session isolation).
//
// The cache is a pure bookkeeping structure on the simulated timeline:
// deterministic, no wall-clock dependence.

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gpusim/device_props.hpp"

namespace vrmr::service {

enum class CachePolicy { Lru, Arc };

const char* to_string(CachePolicy policy);

struct BrickKey {
  std::uint64_t volume_id = 0;
  int brick_id = 0;
  /// Brick-decomposition signature (brick dims + ghost). Brick ids are
  /// only meaningful within one layout: the same volume re-bricked with
  /// different RenderOptions reuses ids 0..N for different extents, and
  /// without this field those would falsely hit stale payloads.
  std::uint64_t layout_id = 0;

  bool operator==(const BrickKey& other) const {
    return volume_id == other.volume_id && brick_id == other.brick_id &&
           layout_id == other.layout_id;
  }
};

struct BrickKeyHash {
  std::size_t operator()(const BrickKey& k) const {
    // Splitmix-style mix of the fields.
    std::uint64_t x = k.volume_id * 0x9e3779b97f4a7c15ULL +
                      k.layout_id * 0xd6e8feb86659fd93ULL +
                      static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.brick_id));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<std::size_t>(x);
  }
};

struct BrickCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_oversized = 0;  // bricks larger than the whole budget
  std::uint64_t bytes_saved = 0;         // H2D bytes skipped by hits
  std::uint64_t bytes_evicted = 0;
  // --- logical vs stored (compressed payloads) ---------------------------
  // The cache budgets, admits and evicts STORED bytes (`bytes` as
  // passed by callers — the compressed payload is what VRAM holds), so
  // every pre-existing counter above is stored bytes. The logical
  // counters below track the decompressed size each entry expands to:
  // logical_bytes_admitted / stored_bytes_admitted is the residency
  // multiplier compression buys, and (logical_bytes_admitted −
  // logical_bytes_evicted) reconciles with resident_logical_bytes()
  // summed over shards (invalidate_volume withdraws entries without
  // counting them in either, mirroring bytes_evicted). Uncompressed
  // callers leave logical == stored.
  std::uint64_t logical_bytes_admitted = 0;
  std::uint64_t stored_bytes_admitted = 0;
  std::uint64_t logical_bytes_evicted = 0;
  std::uint64_t logical_bytes_saved = 0;  // logical size of hit payloads
  /// Bricks admitted by prefetch() — a peer's warm-handoff push —
  /// rather than by a frame's staging miss. Not counted as misses: the
  /// demand stream's hit rate stays comparable with and without pushes.
  std::uint64_t prefetch_admissions = 0;
  /// Payload bytes of those admissions.
  std::uint64_t bytes_prefetched = 0;

  // --- Arc telemetry (all zero under Lru) --------------------------------
  // Reconciliation rules: hits == t1_hits + t2_hits, and every ghost
  // hit is also counted in `misses` (the payload was gone; the frame
  // restaged it) — so hit_rate() is directly comparable across
  // policies and b1_ghost_hits + b2_ghost_hits <= misses.
  std::uint64_t t1_hits = 0;        // demand hits on once-touched bricks
  std::uint64_t t2_hits = 0;        // demand hits on the frequent list
  std::uint64_t b1_ghost_hits = 0;  // demand misses remembered in B1 (p up)
  std::uint64_t b2_ghost_hits = 0;  // demand misses remembered in B2 (p down)
  /// Sum of the per-GPU adaptive targets p (bytes T1 aims to hold), so
  /// service telemetry can watch the recency/frequency balance drift
  /// without probing each shard.
  double arc_p_bytes = 0.0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class BrickCache {
 public:
  /// One shard per GPU, each with `capacity_per_gpu` bytes under the
  /// given admission/eviction policy.
  BrickCache(int num_gpus, std::uint64_t capacity_per_gpu,
             CachePolicy policy = CachePolicy::Lru);

  /// Non-copyable: the index stores list iterators, so a copy's
  /// Locators would keep aiming into the source's lists and the first
  /// mutation through the copy would splice another object's nodes.
  /// (Factory returns still work — prvalues materialize in place.)
  BrickCache(const BrickCache&) = delete;
  BrickCache& operator=(const BrickCache&) = delete;

  /// The serving budget for a device: VRAM minus a reserve for the
  /// working frame (staged brick being mapped, kernel output, textures).
  static std::uint64_t capacity_for(const gpusim::DeviceProps& props,
                                    std::uint64_t reserve_bytes);

  /// Per-lookup classification for trace/telemetry consumers. Under Lru
  /// only `hit` is meaningful; under Arc a miss whose key the ghost
  /// directory remembers reports which ghost list it hit (mutually
  /// exclusive, and both false on a cold miss).
  struct LookupOutcome {
    bool hit = false;
    bool ghost_b1 = false;
    bool ghost_b2 = false;
  };

  /// The staging-time query: returns true when (key) is already
  /// resident on `gpu` (recency/frequency refreshed per policy + hit),
  /// otherwise admits it — evicting per policy until it fits — and
  /// returns false (miss). Bricks larger than the whole per-GPU budget
  /// are never admitted and never evict anything. `outcome` (optional)
  /// reports the classification for flight-recorder cache events.
  /// `bytes` is the STORED payload (what VRAM holds — compressed when a
  /// codec is on); `logical_bytes` its decompressed size for the
  /// logical-vs-stored stats counters, 0 meaning "same as bytes".
  bool lookup_or_admit(int gpu, const BrickKey& key, std::uint64_t bytes,
                       LookupOutcome* outcome = nullptr,
                       std::uint64_t logical_bytes = 0);

  /// Non-mutating residency probe (no recency touch, no accounting).
  /// Ghost entries are not resident.
  bool resident(int gpu, const BrickKey& key) const;

  /// Stored/logical payload sizes of a resident entry (no recency
  /// touch, no accounting); nullopt when the key is not resident on
  /// `gpu` (ghosts included). The failover pre-push reads this to ship
  /// a crashed shard's warm bricks at their true stored sizes.
  struct Residency {
    std::uint64_t stored_bytes = 0;
    std::uint64_t logical_bytes = 0;
  };
  std::optional<Residency> payload_of(int gpu, const BrickKey& key) const;

  /// Speculative admission: admit `key` on `gpu` — evicting per policy
  /// to fit — WITHOUT charging a demand miss, so hit-rate telemetry
  /// reflects only what frames actually asked for. The one caller is
  /// RenderService::admit_pushed_brick, which seeds the bricks a peer
  /// shard pushes during failover or migration (warm handoff).
  /// Already-resident keys are refreshed (no accounting); oversized
  /// bricks are rejected exactly like lookup_or_admit.
  /// Under Arc a speculative insert lands in T1 flagged speculative:
  /// it never nudges p (a ghost entry it displaces is dropped
  /// silently, not "hit"), its first *demand* touch counts as that
  /// brick's first access (re-arming it as a normal T1 entry rather
  /// than promoting a never-demanded brick to T2), and if it is
  /// evicted before any demand touch it leaves NO ghost — so B1/B2
  /// keep recording only the demand stream's history.
  /// Returns true when the brick is resident on return; `admitted`
  /// (optional) reports whether this call inserted it (false for a
  /// refresh or a reject) — what prefetch_admissions/bytes_prefetched
  /// count, so callers can count their own admissions without probing
  /// stats.
  /// `bytes`/`logical_bytes` follow lookup_or_admit's stored/logical
  /// convention.
  bool prefetch(int gpu, const BrickKey& key, std::uint64_t bytes,
                bool* admitted = nullptr, std::uint64_t logical_bytes = 0);

  /// Drop every brick of `volume_id` on every GPU (volume updated or
  /// session closed with volume eviction requested) — including its
  /// B1/B2 ghost entries: a retired (volume, generation) id can never
  /// be demanded again, and a stale ghost hit would steer p with
  /// evidence from a dead key space.
  void invalidate_volume(std::uint64_t volume_id);

  /// Bytes of `volume_id` resident across all GPUs (no recency touch).
  /// The frontend's brick-affinity placement reads this to route a
  /// session toward the shard where its volume is already warm.
  std::uint64_t resident_bytes_for_volume(std::uint64_t volume_id) const;

  /// One warm payload of a volume, for handoff sizing: the migration /
  /// failover pre-push enumerates these to ship a source shard's
  /// resident bricks to the target at their true stored sizes.
  struct WarmBrick {
    int gpu = 0;  // lowest GPU holding the payload
    BrickKey key;
    std::uint64_t stored_bytes = 0;
    std::uint64_t logical_bytes = 0;
  };
  /// Every resident payload of `volume_id`, one entry per (brick,
  /// layout) — a brick resident on several GPUs reports the lowest —
  /// sorted by (layout_id, brick_id) so handoff traffic is
  /// deterministic regardless of cache-internal list order. No recency
  /// touch, no accounting; ghosts are not resident.
  std::vector<WarmBrick> warm_bricks_for_volume(std::uint64_t volume_id) const;

  void clear();

  int num_gpus() const { return static_cast<int>(shards_.size()); }
  std::uint64_t capacity_per_gpu() const { return capacity_; }
  CachePolicy policy() const { return policy_; }
  std::uint64_t resident_bytes(int gpu) const;
  /// Decompressed size of the shard's resident payloads — what the GPU
  /// *renders from*, vs resident_bytes() which is what VRAM *holds*.
  /// Their ratio is the residency multiplier compression buys.
  std::uint64_t resident_logical_bytes(int gpu) const;
  std::size_t resident_bricks(int gpu) const;
  const BrickCacheStats& stats() const { return stats_; }
  void reset_stats();

  /// Arc introspection for one GPU shard (tests, telemetry debugging).
  /// Under Lru the whole resident list reports as T1 and p stays 0.
  struct ArcProbe {
    std::uint64_t t1_bytes = 0, t2_bytes = 0;  // resident
    std::uint64_t b1_bytes = 0, b2_bytes = 0;  // ghosts (keys only)
    std::size_t t1_entries = 0, t2_entries = 0;
    std::size_t b1_entries = 0, b2_entries = 0;
    double p = 0.0;  // adaptive T1 byte target
  };
  ArcProbe arc_probe(int gpu) const;

 private:
  /// Which list an indexed key currently lives on. Lru uses only T1.
  enum class ListId : std::uint8_t { T1, T2, B1, B2 };

  struct Entry {
    BrickKey key;
    std::uint64_t bytes = 0;          // stored (what the budget charges)
    std::uint64_t logical_bytes = 0;  // decompressed size of the payload
    /// Admitted by prefetch() and not demand-touched yet (Arc, T1
    /// only): first demand touch re-arms instead of promoting, and
    /// eviction leaves no ghost.
    bool speculative = false;
  };
  struct Locator {
    ListId list = ListId::T1;
    std::list<Entry>::iterator it;
  };
  struct Shard {
    // front = most recently used on every list. Lru keeps everything
    // on t1; Arc splits residency t1/t2 with ghost tails b1/b2.
    std::list<Entry> t1, t2, b1, b2;
    std::unordered_map<BrickKey, Locator, BrickKeyHash> index;
    std::uint64_t t1_bytes = 0, t2_bytes = 0;
    std::uint64_t b1_bytes = 0, b2_bytes = 0;
    /// Arc's adaptive target: bytes T1 aims to hold (0 = pure
    /// frequency protection, capacity = pure recency).
    double p = 0.0;

    std::uint64_t resident() const { return t1_bytes + t2_bytes; }
    std::list<Entry>& list_of(ListId id) {
      switch (id) {
        case ListId::T1: return t1;
        case ListId::T2: return t2;
        case ListId::B1: return b1;
        case ListId::B2: return b2;
      }
      return t1;  // unreachable
    }
    std::uint64_t& bytes_of(ListId id) {
      switch (id) {
        case ListId::T1: return t1_bytes;
        case ListId::T2: return t2_bytes;
        case ListId::B1: return b1_bytes;
        case ListId::B2: return b2_bytes;
      }
      return t1_bytes;  // unreachable
    }
  };

  Shard& shard_at(int gpu);
  const Shard& shard_at(int gpu) const;

  /// Move an indexed entry to the MRU end of `to` (updating byte
  /// totals and the locator).
  void move_to_mru(Shard& shard, Locator& loc, ListId to);
  /// Unlink + deindex an entry (byte totals updated); returns its data.
  Entry remove(Shard& shard, const BrickKey& key);
  /// Unlink + deindex the LRU (tail) entry of `from`; returns its data.
  Entry pop_lru(Shard& shard, ListId from);
  /// Push a fresh entry at the MRU end of `to` and index it.
  void insert_mru(Shard& shard, ListId to, Entry entry);

  // --- Lru ---------------------------------------------------------------
  bool lru_touch(Shard& shard, const BrickKey& key);
  bool lru_insert_evicting(Shard& shard, const BrickKey& key, std::uint64_t bytes,
                           std::uint64_t logical_bytes);

  // --- Arc ---------------------------------------------------------------
  /// Evict one resident LRU entry: from T1 while it exceeds the target
  /// p (or exactly meets it on a B2 ghost-hit path), else from T2.
  /// Demand-touched victims leave a ghost in B1/B2; speculative ones
  /// vanish without one.
  void arc_replace(Shard& shard, bool b2_ghost_path);
  /// Evict until `bytes` fit the resident budget, then trim ghosts to
  /// their invariants (t1+b1 <= capacity, everything <= 2x capacity).
  void arc_make_room(Shard& shard, std::uint64_t bytes, bool b2_ghost_path);
  void arc_trim_ghosts(Shard& shard);
  /// Nudge p by the byte-weighted ARC learning rule and keep
  /// stats_.arc_p_bytes (the cross-shard sum) in sync.
  void arc_adapt(Shard& shard, std::uint64_t bytes, bool toward_recency);
  bool arc_lookup_or_admit(Shard& shard, const BrickKey& key, std::uint64_t bytes,
                           std::uint64_t logical_bytes, LookupOutcome* outcome);
  bool arc_prefetch(Shard& shard, const BrickKey& key, std::uint64_t bytes,
                    std::uint64_t logical_bytes, bool* admitted);

  void count_eviction(const Entry& victim);

  std::vector<Shard> shards_;
  std::uint64_t capacity_;
  CachePolicy policy_;
  BrickCacheStats stats_;
};

}  // namespace vrmr::service
