//! Tiling planner for a concrete accelerator implementation.
//!
//! The abstract dataflow planner ([`dataflow::plan_tiling`]) only respects
//! the total effective memory `S`. A real implementation adds *structural*
//! constraints (Section V): the Psum block must fit the LReg files through a
//! feasible PE mapping, the per-channel weight row must fit the WGBuf, and
//! the per-channel input slice (halo included) must fit the IGBuf. The
//! paper observes this fixed splitting costs only 3–4% extra DRAM traffic
//! (Fig. 14); the workspace tests pin that observation.
//!
//! The sweep *is* the dataflow crate's search engine
//! ([`search_ours_with`]), instantiated with this module's feasibility
//! predicates: traffic is evaluated through precomputed [`LayerTables`],
//! the `(b, z)` outer product fans out across threads, the IGBuf/WGBuf
//! constraints (monotone in their parameters) break candidate loops early,
//! and the expensive `map_block` feasibility check only runs for candidates
//! that could still beat the best feasible tiling found so far. Sharing one
//! orchestration keeps the prune and tie-break semantics of the planner and
//! the abstract search from drifting apart.
//!
//! Results are memoized process-wide in a bounded LRU keyed by the layer
//! shape and the architecture's planning projection ([`PlanArch`]: PE
//! array, LRegs, GBufs and GReg segment) — the same machinery as the
//! abstract search's memo cache. The group shape, total GReg bytes, clock
//! and DRAM model never constrain a tiling, so design-space candidates that
//! differ only in those share one plan, and long-running embedders (the
//! analysis service's `/v1/plan`, `/v1/network` and `/v1/dse`) plan a given
//! layer × planning geometry once; concurrent identical misses coalesce
//! onto one sweep. [`plan_cache_stats`], [`set_plan_cache_capacity`] and
//! [`clear_plan_cache`] expose, bound and reset the cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use accel_sim::mapping::{map_block, Block, MapError, Mapping};
use accel_sim::{ArchConfig, PlanArch};
use comm_bound::OnChipMemory;
use conv_model::ConvLayer;
use dataflow::engine::search_ours_with;
use dataflow::{paper_tiling, FlightMap, LayerTables, LruCache, Tiling};

/// True when `tiling` satisfies every structural constraint of `arch`.
#[must_use]
pub fn tiling_feasible(layer: &ConvLayer, tiling: &Tiling, arch: &ArchConfig) -> bool {
    let arch = arch.plan_arch();
    buffers_fit(layer, &arch, tiling) && maps(layer, &arch, tiling).is_ok()
}

/// The WGBuf constraint (`z` kernel rows resident) and the IGBuf constraint
/// (`b·x'·y'` halo-included inputs resident). Both are monotone in every
/// tiling parameter.
fn buffers_fit(layer: &ConvLayer, arch: &PlanArch, tiling: &Tiling) -> bool {
    let (xh, yh) = layer.input_footprint(tiling.x, tiling.y);
    tiling.z <= arch.wgbuf_entries && tiling.b * xh * yh <= arch.igbuf_entries
}

/// Maps the full-size block of `tiling` onto the PE array. If it maps,
/// every (smaller) boundary block maps too.
fn maps(layer: &ConvLayer, arch: &PlanArch, tiling: &Tiling) -> Result<Mapping, MapError> {
    let block = Block {
        i0: 0,
        b: tiling.b,
        z0: 0,
        z: tiling.z,
        y0: 0,
        y: tiling.y,
        x0: 0,
        x: tiling.x,
    };
    map_block(*arch, layer, &block)
}

/// Memo-cache key: the layer shape plus the architecture's planning
/// projection. [`PlanArch`] is built next to `ArchConfig` by exhaustive
/// destructuring, and the planning sweep takes only a `&PlanArch`, so the
/// key covers everything a plan depends on. Keying the full configuration
/// instead would replan every design-space candidate that differs only in
/// group shape, GReg total, clock or DRAM — nine times over on a grid with
/// 3 × 3 group axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    layer: ConvLayer,
    arch: PlanArch,
}

/// Default bound on the planner memo cache. Entries are a few hundred bytes
/// (a key plus a `Result<Tiling, SimError>`), and real workloads plan at
/// most a few hundred distinct layer × planning-geometry pairs (a VGG-16
/// staged DSE over a 26k-candidate grid plans 270).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

type PlanResult = Result<Tiling, accel_sim::SimError>;

static PLAN_CACHE: OnceLock<Mutex<LruCache<PlanKey, PlanResult>>> = OnceLock::new();
static PLAN_FLIGHTS: OnceLock<FlightMap<PlanKey, PlanResult>> = OnceLock::new();
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

fn plan_cache() -> &'static Mutex<LruCache<PlanKey, PlanResult>> {
    PLAN_CACHE.get_or_init(|| Mutex::new(LruCache::new(DEFAULT_PLAN_CACHE_CAPACITY)))
}

fn plan_flights() -> &'static FlightMap<PlanKey, PlanResult> {
    PLAN_FLIGHTS.get_or_init(FlightMap::new)
}

/// Current planner memo-cache statistics — the same [`dataflow::CacheStats`]
/// shape the tiling-search cache reports, counting plans instead of
/// searches.
#[must_use]
pub fn plan_cache_stats() -> dataflow::CacheStats {
    let (entries, evictions, capacity) = plan_cache()
        .lock()
        .map(|c| (c.len(), c.evictions(), c.capacity()))
        .unwrap_or((0, 0, 0));
    dataflow::CacheStats {
        hits: PLAN_HITS.load(Ordering::Relaxed),
        misses: PLAN_MISSES.load(Ordering::Relaxed),
        coalesced: plan_flights().coalesced(),
        evictions,
        entries,
        capacity,
    }
}

/// Empties the planner memo cache and resets its counters (benchmarks use
/// this for cold timings). The LRU capacity is kept.
pub fn clear_plan_cache() {
    if let Ok(mut c) = plan_cache().lock() {
        c.clear();
    }
    plan_flights().reset_stats();
    PLAN_HITS.store(0, Ordering::Relaxed);
    PLAN_MISSES.store(0, Ordering::Relaxed);
}

/// Bounds the planner memo cache to `capacity` entries (clamped to ≥ 1),
/// evicting least-recently-used entries immediately if it is already over.
pub fn set_plan_cache_capacity(capacity: usize) {
    if let Ok(mut c) = plan_cache().lock() {
        c.set_capacity(capacity);
    }
}

/// Chooses the DRAM-minimal tiling of the paper's dataflow that is feasible
/// on `arch`, by exhaustive search seeded with the closed-form choice.
/// Equal-traffic tilings resolve to the smallest `(b, z, y, x)` tuple, the
/// same canonical order the dataflow search engine uses.
///
/// Results (errors included — they are deterministic) are memoized in a
/// process-wide bounded LRU keyed by the layer shape and
/// [`ArchConfig::plan_arch`], with concurrent identical misses coalesced
/// onto one sweep, so warm planning is a hash lookup for any embedder.
/// `arch` is validated before the lookup and its errors are not cached.
///
/// # Errors
///
/// Returns [`accel_sim::SimError::InvalidArch`] when `arch` fails its
/// structural invariants, and other [`accel_sim::SimError`]s when no tiling
/// fits — e.g. a layer whose single sliding window (`Hk×Wk` inputs) already
/// exceeds the IGBuf or the GReg segments, such as the weight-gradient
/// convolution of a large feature map. Such layers need a different
/// blocking than the Fig. 7 dataflow provides.
pub fn plan_for_arch(layer: &ConvLayer, arch: &ArchConfig) -> Result<Tiling, accel_sim::SimError> {
    arch.validate().map_err(accel_sim::SimError::InvalidArch)?;
    let plan = arch.plan_arch();
    let key = PlanKey {
        layer: *layer,
        arch: plan,
    };
    if let Ok(mut cache) = plan_cache().lock() {
        if let Some(hit) = cache.get(&key) {
            PLAN_HITS.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
    }
    let (result, _coalesced) = plan_flights().run(key, || {
        PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
        let result = plan_for_arch_uncached(layer, &plan);
        if let Ok(mut cache) = plan_cache().lock() {
            cache.insert(key, result.clone());
        }
        result
    });
    result
}

/// The actual planning sweep behind [`plan_for_arch`]. It sees only the
/// planning projection, so it cannot depend on a field the memo does not
/// key on.
fn plan_for_arch_uncached(layer: &ConvLayer, arch: &PlanArch) -> PlanResult {
    let mem = OnChipMemory::from_words(arch.effective_onchip_words() as f64);
    let tables = LayerTables::new(layer);

    // The buffer constraints are monotone in every tiling parameter, so
    // they drive the engine's loop breaks; the expensive PE-array mapping
    // check is the residual predicate, run only for candidates that could
    // still beat the best feasible tiling.
    let best = search_ours_with(
        layer,
        &tables,
        Some(paper_tiling(layer, mem)),
        Some(arch.wgbuf_entries),
        |t: &Tiling| buffers_fit(layer, arch, t),
        |t: &Tiling| maps(layer, arch, t).is_ok(),
    );

    match best {
        Some(c) => Ok(c.tiling),
        None => {
            // Diagnose with the unit tiling: the most informative error is
            // whatever stops the smallest possible block.
            let unit = Tiling::clamped(layer, 1, 1, 1, 1);
            let (xh, yh) = layer.input_footprint(unit.x, unit.y);
            if xh * yh > arch.igbuf_entries {
                Err(accel_sim::SimError::InputTileTooLarge {
                    needed: xh * yh,
                    capacity: arch.igbuf_entries,
                })
            } else {
                match maps(layer, arch, &unit) {
                    Err(e) => Err(accel_sim::SimError::Unmappable(e)),
                    Ok(_) => Err(accel_sim::SimError::WeightTileTooLarge {
                        z: 1,
                        capacity: arch.wgbuf_entries,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;
    use dataflow::our_dataflow_traffic;
    use proptest::prelude::*;

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    #[test]
    fn planned_tiling_is_feasible() {
        for i in 1..=5 {
            let arch = ArchConfig::implementation(i);
            let t = plan_for_arch(&layer(), &arch).unwrap();
            assert!(tiling_feasible(&layer(), &t, &arch), "implementation {i}");
        }
    }

    #[test]
    fn planned_tiling_simulates_cleanly() {
        let arch = ArchConfig::example();
        let t = plan_for_arch(&layer(), &arch).unwrap();
        let stats = accel_sim::simulate(&layer(), &t, &arch).unwrap();
        assert_eq!(stats.useful_macs, layer().macs());
    }

    #[test]
    fn fixed_splitting_costs_little() {
        // Paper Fig. 14: implementations produce 3-4% more DRAM access than
        // the unconstrained dataflow. Allow up to 10%.
        let l = layer();
        let arch = ArchConfig::example();
        let mem = OnChipMemory::from_words(arch.effective_onchip_words() as f64);
        let free = dataflow::search_ours(&l, mem).traffic.total_words() as f64;
        let constrained =
            our_dataflow_traffic(&l, &plan_for_arch(&l, &arch).unwrap()).total_words() as f64;
        let overhead = constrained / free - 1.0;
        assert!(
            (0.0..0.10).contains(&overhead),
            "fixed-splitting overhead should be small, got {overhead:.3}"
        );
    }

    #[test]
    fn planner_is_deterministic_across_thread_counts() {
        // The canonical tie-break makes the result independent of how many
        // workers the sweep fans out to and how they interleave.
        let l = layer();
        let arch = ArchConfig::example();
        let set_threads = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .unwrap();
        };
        set_threads(1);
        let reference = plan_for_arch(&l, &arch).unwrap();
        for threads in [2, 4, 8] {
            set_threads(threads);
            assert_eq!(plan_for_arch(&l, &arch).unwrap(), reference);
        }
        set_threads(0); // restore auto for the other tests
    }

    #[test]
    fn plan_cache_hits_on_repeat_plans() {
        // Counters are process-wide and other tests plan concurrently, so
        // only delta properties are asserted, on a layer shape unique to
        // this test.
        let l = workloads::vgg16(5).layer(6).unwrap().layer;
        let arch = ArchConfig::implementation(2);
        let first = plan_for_arch(&l, &arch).unwrap();
        let hits_before = plan_cache_stats().hits;
        let second = plan_for_arch(&l, &arch).unwrap();
        assert_eq!(first, second);
        let stats = plan_cache_stats();
        assert!(stats.hits > hits_before, "warm plan must hit");
        assert!(stats.entries >= 1);
        assert!(stats.capacity >= 1);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn plan_cache_memoizes_errors_truthfully() {
        // A layer whose single window overflows the IGBuf fails the same
        // way warm as cold.
        let l = ConvLayer::square(1, 4, 4, 4, 33, 1).unwrap();
        let arch = ArchConfig::example();
        let cold = plan_for_arch(&l, &arch).unwrap_err();
        let warm = plan_for_arch(&l, &arch).unwrap_err();
        assert_eq!(cold, warm);
    }

    #[test]
    fn invalid_arch_is_not_planned() {
        // Warm the shared planning key first: validation precedes the
        // lookup, so a cached plan cannot answer for an invalid arch.
        plan_for_arch(&layer(), &ArchConfig::example()).unwrap();
        let mut arch = ArchConfig::example();
        arch.group_cols = 7;
        let err = plan_for_arch(&layer(), &arch).unwrap_err();
        assert!(
            matches!(&err, accel_sim::SimError::InvalidArch(m) if m.contains("group cols 7")),
            "{err:?}"
        );
    }

    #[test]
    fn infeasible_tilings_rejected() {
        let arch = ArchConfig::example();
        let l = layer();
        // z beyond the WGBuf (256 entries).
        assert!(!tiling_feasible(
            &l,
            &Tiling {
                b: 1,
                z: 512,
                y: 4,
                x: 4
            },
            &arch
        ));
        // Input tile beyond the IGBuf: 3 × 58×58 halo ≫ 1024 entries.
        assert!(!tiling_feasible(
            &l,
            &Tiling::clamped(&l, 3, 4, 56, 56),
            &arch
        ));
    }

    /// Random small layers with `same` padding, so halo clipping and the
    /// planner's error diagnoses are both reached.
    fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
        (
            1usize..=2,
            4usize..=24,
            6usize..=18,
            1usize..=8,
            1usize..=3,
            1usize..=2,
        )
            .prop_filter_map("valid layer", |(b, co, size, ci, k, s)| {
                ConvLayer::square(b, co, size, ci, k, s).ok()
            })
    }

    /// Random valid architectures. Tiny buffers and segments make some
    /// layers unplannable, so error variants are compared too.
    fn arch_strategy() -> impl Strategy<Value = ArchConfig> {
        (
            (0usize..4, 0usize..3, 0usize..3, 0usize..3),
            (0usize..4, 0usize..4, 0usize..3, 0usize..3),
            (0usize..3, 1e8f64..2e9, 1e8f64..2e10, 0u64..1000),
        )
            .prop_map(
                |((pr, pc, gr, gc), (lr, ig, wg, seg), (greg, freq, bw, lat))| ArchConfig {
                    pe_rows: [4usize, 8, 16, 32][pr],
                    pe_cols: [4usize, 8, 16][pc],
                    group_rows: [1usize, 2, 4][gr],
                    group_cols: [1usize, 2, 4][gc],
                    lreg_entries_per_pe: [8usize, 32, 64, 128][lr],
                    igbuf_entries: [4usize, 64, 512, 1024][ig],
                    wgbuf_entries: [4usize, 64, 256][wg],
                    greg_segment_entries: [2usize, 16, 64][seg],
                    greg_bytes: [1024usize, 10 * 1024, 64 * 1024][greg],
                    core_freq_hz: freq,
                    dram: accel_sim::DramConfig {
                        bandwidth_bytes_per_s: bw,
                        latency_cycles: lat,
                    },
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The projection is lossless: replacing every field it drops with
        /// another valid value leaves the key and the uncached plan (error
        /// variant and payload included) unchanged, and the shared plan
        /// simulates on both architectures. Changing any kept field
        /// changes the key.
        #[test]
        fn plan_depends_only_on_the_planning_projection(
            layer in layer_strategy(),
            a in arch_strategy(),
            other in arch_strategy(),
        ) {
            let b = ArchConfig {
                group_rows: other.group_rows,
                group_cols: other.group_cols,
                greg_bytes: other.greg_bytes,
                core_freq_hz: other.core_freq_hz,
                dram: other.dram,
                ..a
            };
            prop_assert!(a.validate().is_ok() && b.validate().is_ok());
            prop_assert_eq!(a.plan_arch(), b.plan_arch());
            let planned = plan_for_arch_uncached(&layer, &a.plan_arch());
            prop_assert_eq!(&planned, &plan_for_arch_uncached(&layer, &b.plan_arch()));
            if let Ok(tiling) = &planned {
                for arch in [&a, &b] {
                    let stats = accel_sim::simulate(&layer, tiling, arch);
                    prop_assert!(stats.is_ok(), "shared plan rejected on {arch:?}: {stats:?}");
                }
            }

            let kept: [fn(&mut ArchConfig); 6] = [
                |c| c.pe_rows *= 2,
                |c| c.pe_cols *= 2,
                |c| c.lreg_entries_per_pe += 1,
                |c| c.igbuf_entries += 1,
                |c| c.wgbuf_entries += 1,
                |c| c.greg_segment_entries += 1,
            ];
            for change in kept {
                let mut changed = a;
                change(&mut changed);
                prop_assert!(changed.validate().is_ok());
                prop_assert_ne!(changed.plan_arch(), a.plan_arch());
            }
        }
    }
}
