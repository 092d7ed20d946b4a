//! Shared distance-difference tables across vote engines, under an
//! explicit byte budget.
//!
//! A [`crate::engine::VoteEngine`] table depends only on the
//! (deployment, plane, grid, pair set) it was built for — not on any
//! measurement, session, or tag. A serving layer that runs one
//! [`crate::position::MultiResPositioner`] per session would otherwise
//! build 2·N private copies (coarse + fine per session) of tables that are
//! bit-for-bit identical. [`TableCache`] deduplicates them: engines with
//! equal [`TableKey`] fingerprints are handed the same `Arc`-shared table
//! slots, so N sessions over one deployment hold exactly two physical
//! tables, built once each. One cache entry carries a slot per
//! [`crate::engine::TablePrecision`], so mixed f64/f32 fleets share
//! geometry without duplicating keys.
//!
//! Sharing is invisible to results. The slot a cache hands out is the same
//! lazily-built `OnceLock` an unshared engine owns privately; whichever
//! engine touches it first builds the table with the construction-time
//! parameters that define the key, and every later engine reads the same
//! bits it would have computed itself.
//!
//! ## Byte budget and eviction
//!
//! [`CacheConfig::max_resident_bytes`] caps what the cache may hold. The
//! accounting is by **charge, at adoption time**: when an engine adopts,
//! the cache charges the full predicted size of its precision's table
//! (`cells × pairs × entry bytes` — tables are dense rectangles, so the
//! prediction is exact) even though the `OnceLock` builds lazily later.
//! Charged bytes always dominate built bytes, so
//! `stats().resident_bytes ≤ max_resident_bytes` holds at *every*
//! instant, not just after builds settle. When a new charge would
//! overflow the budget, least-recently-adopted entries are evicted until
//! it fits; an entry that cannot fit even alone (e.g. under a zero
//! budget) is simply never registered, and the engine keeps its private
//! slot — the cache degrades to build-per-session, never to a panic.
//!
//! Eviction drops only the *cache's* `Arc` to the slots: engines already
//! sharing an evicted table keep it alive and keep scoring through it
//! unchanged. A later adopter of the same key gets a fresh entry and
//! rebuilds the same bits — reported as [`AdoptOutcome::Rebuild`] so
//! callers can see churn explicitly instead of inferring it from stats
//! deltas.
//!
//! Eviction is **precision-aware**: before evicting a whole entry (losing
//! a deployment's geometry at every width), the cache first drops the
//! f64 slot of entries that are *double-resident* — charged for f64 *and*
//! a cheaper precision — least-recently-adopted first. The cheap table
//! keeps serving that deployment; only the 2–8× larger reference copy is
//! sacrificed. Slot drops and whole-entry evictions are counted
//! separately ([`TableCacheStats::slot_drops`] vs
//! [`TableCacheStats::evictions`]), and a later f64 adopter of a
//! slot-dropped key reports [`AdoptOutcome::Rebuild`], exactly like a
//! re-adoption after a whole-entry eviction.

use crate::engine::{TablePrecision, TableSlots, VoteEngine};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A canonical fingerprint of everything a distance-difference table
/// depends on: grid lattice, plane depth, turns factor, and the ordered
/// pair set with its antenna geometry. All floats enter as IEEE-754 bit
/// patterns, so two keys are equal exactly when the tables they describe
/// are bit-identical by construction. Precision is deliberately *not*
/// part of the key — one entry serves both widths.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TableKey(Vec<u64>);

impl TableKey {
    /// Fingerprints an engine's table inputs.
    pub(crate) fn new(engine: &VoteEngine) -> Self {
        let grid = engine.grid();
        let rect = grid.rect();
        let mut words = vec![
            rect.min.x.to_bits(),
            rect.min.z.to_bits(),
            rect.max.x.to_bits(),
            rect.max.z.to_bits(),
            grid.resolution().to_bits(),
            grid.nx() as u64,
            grid.nz() as u64,
            engine.plane().depth.to_bits(),
            engine.turns_factor().to_bits(),
            engine.pairs().len() as u64,
        ];
        for (pair, &(pi, pj)) in engine.pairs().iter().zip(engine.geom()) {
            words.push(((pair.i.0 as u64) << 8) | pair.j.0 as u64);
            for p in [pi, pj] {
                words.push(p.x.to_bits());
                words.push(p.y.to_bits());
                words.push(p.z.to_bits());
            }
        }
        TableKey(words)
    }
}

/// Capacity policy for a [`TableCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Upper bound on the bytes of table data the cache may keep resident
    /// (charged at adoption time; see the module docs). The default is
    /// effectively unbounded, preserving the never-evict behaviour for
    /// single-deployment services.
    pub max_resident_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { max_resident_bytes: u64::MAX }
    }
}

/// What [`TableCache::adopt`] did for an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdoptOutcome {
    /// The engine's key was resident; it now shares the cached slots.
    Hit,
    /// First sight of this key. If it fit the budget the engine's own
    /// slots were registered for later sharers; otherwise the engine
    /// simply keeps them private.
    Miss,
    /// This key *was* resident once but has been evicted since — the
    /// adopting engine (or a later sharer) rebuilds a table the cache
    /// used to hold. Distinguishable from [`AdoptOutcome::Miss`] so churn
    /// against the byte budget is observable per adoption.
    Rebuild,
}

/// A point-in-time view of a [`TableCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableCacheStats {
    /// Adoptions that found an existing slot for the engine's key.
    pub hits: u64,
    /// Adoptions that did not ([`AdoptOutcome::Miss`] or
    /// [`AdoptOutcome::Rebuild`]). `hits + misses` equals total adoptions.
    pub misses: u64,
    /// Distinct table keys currently cached.
    pub entries: u64,
    /// Cached slots whose table has actually been built (each precision
    /// counts separately).
    pub built_tables: u64,
    /// Total bytes of built table data currently resident in the cache.
    /// Never exceeds the charged bytes, which never exceed
    /// [`CacheConfig::max_resident_bytes`].
    pub resident_bytes: u64,
    /// Built resident bytes broken out per precision, indexed in
    /// [`TablePrecision::ALL`] order (f64, f32, i16, i8). Sums exactly to
    /// `resident_bytes` — the conservation law telemetry asserts.
    pub resident_bytes_by_precision: [u64; 4],
    /// Whole entries evicted to keep charged bytes within the budget.
    pub evictions: u64,
    /// f64 slots dropped from double-resident entries under byte pressure
    /// while the entry (and its cheaper table) stayed resident — the
    /// gentler first stage of eviction.
    pub slot_drops: u64,
}

/// One cached geometry: a slot per precision plus bookkeeping.
#[derive(Debug)]
struct Entry {
    slots: TableSlots,
    /// Bytes charged against the budget per precision, indexed in
    /// [`TablePrecision::ALL`] order (0 = no adopter has requested that
    /// width yet, so it can never be built through this entry's shared
    /// slot by a cache-managed engine).
    charged: [u64; 4],
    /// The f64 slot was dropped under byte pressure while the entry
    /// stayed resident; lets a later f64 adopter report
    /// [`AdoptOutcome::Rebuild`].
    dropped_f64: bool,
    /// Adoption clock of the most recent adopter — the LRU criterion.
    last_touch: u64,
}

impl Entry {
    fn charged(&self) -> u64 {
        self.charged.iter().sum()
    }

    /// Charged for f64 *and* at least one cheaper precision — the
    /// slot-drop candidates of precision-aware eviction.
    fn double_resident(&self) -> bool {
        let f64_charge = self.charged[TablePrecision::F64.index()];
        f64_charge > 0 && self.charged() > f64_charge
    }
}

#[derive(Debug, Default)]
struct CacheState {
    slots: BTreeMap<TableKey, Entry>,
    /// Keys that were resident once and have been evicted since; lets
    /// [`TableCache::adopt`] report [`AdoptOutcome::Rebuild`] explicitly.
    evicted: BTreeSet<TableKey>,
    /// Monotonic adoption counter (the LRU clock).
    clock: u64,
    /// Sum of every resident entry's charge.
    charged_bytes: u64,
}

/// A process-wide (or service-wide) registry of shared table slots.
///
/// Thread-safe; adoption takes a mutex for the brief map operation, and
/// table *construction* still happens lazily inside the slot's `OnceLock`
/// (so a slow build never holds the cache lock).
#[derive(Debug)]
pub struct TableCache {
    state: Mutex<CacheState>,
    config: CacheConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    slot_drops: AtomicU64,
}

impl Default for TableCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TableCache {
    /// An empty, effectively unbounded cache.
    pub fn new() -> Self {
        Self::with_config(CacheConfig::default())
    }

    /// An empty cache with an explicit byte budget.
    pub fn with_config(config: CacheConfig) -> Self {
        Self {
            state: Mutex::new(CacheState::default()),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            slot_drops: AtomicU64::new(0),
        }
    }

    /// The capacity policy in force.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Points `engine` at the cache's slots for its fingerprint, creating
    /// the entry from the engine's own (still lazy) slots on first sight
    /// and evicting least-recently-adopted entries if the engine's
    /// predicted table bytes would overflow the budget.
    ///
    /// After adoption, every engine with the same fingerprint and
    /// precision reads the same physical table; the first evaluation (or
    /// explicit build) builds it once for all of them. Sharing never
    /// changes any computed value — the slot's contents are defined by
    /// the key. Engines whose table cannot fit the budget are left on
    /// their private slots (reported as a miss), so a zero-budget cache
    /// degrades to build-per-session.
    ///
    /// Call [`VoteEngine::set_precision`] *before* adopting: the charge
    /// covers the precision declared here.
    pub fn adopt(&self, engine: &mut VoteEngine) -> AdoptOutcome {
        let key = engine.table_fingerprint();
        let need = engine.table_bytes();
        let precision = engine.precision();
        let mut st = self.state.lock().expect("table cache poisoned");
        st.clock += 1;
        let clock = st.clock;

        if st.slots.contains_key(&key) {
            // Charge this precision's bytes on its first adopter.
            let already_charged = st.slots[&key].charged[precision.index()] > 0;
            if !already_charged {
                if !self.make_room(&mut st, &key, need) {
                    // Can't charge the extra width: the engine stays
                    // private rather than building uncharged shared bytes.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return AdoptOutcome::Miss;
                }
                let e = st.slots.get_mut(&key).expect("entry survived make_room");
                e.charged[precision.index()] = need;
                st.charged_bytes += need;
            }
            let e = st.slots.get_mut(&key).expect("entry present");
            e.last_touch = clock;
            // Re-adopting the f64 width of a slot-dropped entry rebuilds
            // a table the cache used to hold, just like re-adopting after
            // a whole-entry eviction.
            let rebuilds_dropped_slot =
                precision == TablePrecision::F64 && !already_charged && e.dropped_f64;
            if rebuilds_dropped_slot {
                e.dropped_f64 = false;
            }
            engine.set_table_slots(e.slots.clone());
            self.hits.fetch_add(1, Ordering::Relaxed);
            return if rebuilds_dropped_slot { AdoptOutcome::Rebuild } else { AdoptOutcome::Hit };
        }

        let was_evicted = st.evicted.contains(&key);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !self.make_room(&mut st, &key, need) {
            // Doesn't fit even after evicting everything else: leave the
            // engine private and the key unregistered.
            return if was_evicted { AdoptOutcome::Rebuild } else { AdoptOutcome::Miss };
        }
        let mut charged = [0u64; 4];
        charged[precision.index()] = need;
        let entry = Entry {
            slots: engine.table_slots().clone(),
            charged,
            dropped_f64: false,
            last_touch: clock,
        };
        st.charged_bytes += need;
        st.evicted.remove(&key);
        st.slots.insert(key, entry);
        if was_evicted {
            AdoptOutcome::Rebuild
        } else {
            AdoptOutcome::Miss
        }
    }

    /// Makes `need` more bytes fit the budget, in two stages of rising
    /// severity — returning false if they can never fit.
    ///
    /// Stage 1 drops the f64 slot of double-resident entries (charged for
    /// f64 *and* a cheaper precision), least-recently-adopted first: the
    /// deployment keeps serving through its cheap table and only the
    /// large reference copy is released. Stage 2 evicts whole
    /// least-recently-adopted entries. Neither stage ever touches `keep`
    /// (the key being adopted; when the adoption *is* an f64 charge, that
    /// key's f64 charge is still zero, so it could not be a stage-1
    /// candidate anyway).
    fn make_room(&self, st: &mut CacheState, keep: &TableKey, need: u64) -> bool {
        if need > self.config.max_resident_bytes {
            return false;
        }
        while st.charged_bytes.saturating_add(need) > self.config.max_resident_bytes {
            let victim = st
                .slots
                .iter()
                .filter(|(k, e)| *k != keep && e.double_resident())
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let e = st.slots.get_mut(&k).expect("victim present");
                    st.charged_bytes -= e.charged[TablePrecision::F64.index()];
                    e.charged[TablePrecision::F64.index()] = 0;
                    // A fresh slot: sharers keep the old table alive
                    // through their own Arcs; the cache forgets it.
                    e.slots.reset(TablePrecision::F64);
                    e.dropped_f64 = true;
                    self.slot_drops.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        while st.charged_bytes.saturating_add(need) > self.config.max_resident_bytes {
            let victim = st
                .slots
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let e = st.slots.remove(&k).expect("victim present");
                    st.charged_bytes -= e.charged();
                    st.evicted.insert(k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return false,
            }
        }
        true
    }

    /// Counters plus a walk of the cached slots (cheap: one entry per
    /// distinct grid in use).
    pub fn stats(&self) -> TableCacheStats {
        let st = self.state.lock().expect("table cache poisoned");
        let mut built = 0u64;
        let mut by_precision = [0u64; 4];
        for entry in st.slots.values() {
            for precision in TablePrecision::ALL {
                if let Some(bytes) = entry.slots.built_bytes(precision) {
                    built += 1;
                    by_precision[precision.index()] += bytes;
                }
            }
        }
        TableCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: st.slots.len() as u64,
            built_tables: built,
            resident_bytes: by_precision.iter().sum(),
            resident_bytes_by_precision: by_precision,
            evictions: self.evictions.load(Ordering::Relaxed),
            slot_drops: self.slot_drops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Deployment;
    use crate::exec::Parallelism;
    use crate::geom::{Plane, Point2, Rect};
    use crate::grid::Grid2;
    use crate::vote::ideal_measurements;

    fn engine(depth: f64, res: f64) -> VoteEngine {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(depth);
        let grid = Grid2::new(
            Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0)),
            res,
        );
        VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial)
    }

    #[test]
    fn identical_engines_share_one_table() {
        let cache = TableCache::new();
        let mut a = engine(2.0, 0.05);
        let mut b = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a), AdoptOutcome::Miss);
        assert_eq!(cache.adopt(&mut b), AdoptOutcome::Hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.built_tables, 0, "adoption must not build eagerly");
        assert_eq!(stats.evictions, 0);
        // The same physical table backs both engines.
        assert_eq!(a.table::<f64>().as_ptr(), b.table::<f64>().as_ptr());
        let stats = cache.stats();
        assert_eq!(stats.built_tables, 1);
        assert_eq!(
            stats.resident_bytes,
            (a.table::<f64>().len() * std::mem::size_of::<f64>()) as u64
        );
    }

    #[test]
    fn different_grids_or_planes_do_not_collide() {
        let cache = TableCache::new();
        let mut engines = [engine(2.0, 0.05), engine(2.0, 0.02), engine(3.0, 0.05)];
        for e in &mut engines {
            cache.adopt(e);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn shared_table_scores_like_a_private_one() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = plane.lift(Point2::new(1.2, 0.9));
        let ms = ideal_measurements(&dep, dep.all_pairs(), truth);
        let private = engine(2.0, 0.05);
        let reference = private.evaluate(&ms);
        let cache = TableCache::new();
        let mut a = engine(2.0, 0.05);
        let mut b = engine(2.0, 0.05);
        cache.adopt(&mut a);
        cache.adopt(&mut b);
        a.prebuild();
        let bits = |m: &crate::grid::VoteMap| -> Vec<u64> {
            m.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&reference), bits(&b.evaluate(&ms)));
    }

    #[test]
    fn mixed_precision_engines_share_one_entry() {
        let cache = TableCache::new();
        let mut a = engine(2.0, 0.05);
        let mut b = engine(2.0, 0.05);
        b.set_precision(TablePrecision::F32);
        assert_eq!(cache.adopt(&mut a), AdoptOutcome::Miss);
        assert_eq!(cache.adopt(&mut b), AdoptOutcome::Hit, "precision is not in the key");
        a.prebuild();
        b.prebuild();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.built_tables, 2, "one table per precision");
        let f64_bytes = (a.table::<f64>().len() * std::mem::size_of::<f64>()) as u64;
        assert_eq!(stats.resident_bytes, f64_bytes + f64_bytes / 2);
        // Another f32 engine shares b's physical table.
        let mut c = engine(2.0, 0.05);
        c.set_precision(TablePrecision::F32);
        assert_eq!(cache.adopt(&mut c), AdoptOutcome::Hit);
        assert_eq!(b.table::<f32>().as_ptr(), c.table::<f32>().as_ptr());
    }

    #[test]
    fn byte_budget_evicts_lru_and_reports_rebuilds() {
        // Budget for exactly two tables of this size; three distinct keys.
        let one = engine(2.0, 0.05).table_bytes();
        let cache = TableCache::with_config(CacheConfig { max_resident_bytes: 2 * one });
        let budget = cache.config().max_resident_bytes;

        let mut outcomes = Vec::new();
        let mut adopt = |e: &mut VoteEngine| {
            let out = cache.adopt(e);
            let stats = cache.stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
            assert!(stats.entries <= 2);
            out
        };

        let mut a1 = engine(2.0, 0.05);
        let mut b1 = engine(3.0, 0.05);
        let mut a2 = engine(2.0, 0.05);
        let mut c1 = engine(4.0, 0.05);
        let mut b2 = engine(3.0, 0.05);
        let mut a3 = engine(2.0, 0.05);
        outcomes.push(adopt(&mut a1)); // A in
        a1.prebuild();
        outcomes.push(adopt(&mut b1)); // B in — full
        b1.prebuild();
        outcomes.push(adopt(&mut a2)); // touch A
        outcomes.push(adopt(&mut c1)); // evicts B (LRU), not A
        outcomes.push(adopt(&mut b2)); // B again: Rebuild, evicts A
        outcomes.push(adopt(&mut a3)); // A again: Rebuild, evicts C
        use AdoptOutcome::{Hit, Miss, Rebuild};
        assert_eq!(outcomes, vec![Miss, Miss, Hit, Miss, Rebuild, Rebuild]);

        let stats = cache.stats();
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 5);
        // Conservation: every non-hit adoption inserted an entry, and
        // entries = inserts − evictions.
        assert_eq!(stats.entries, stats.misses - stats.evictions);
        // Engines holding evicted tables keep scoring through them; the
        // cache merely dropped its own reference.
        assert!(a1.is_table_built() && b1.is_table_built());
    }

    #[test]
    fn zero_budget_degrades_to_build_per_session() {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let ms = ideal_measurements(&dep, dep.all_pairs(), plane.lift(Point2::new(1.2, 0.9)));
        let reference = engine(2.0, 0.05).evaluate(&ms);

        let cache = TableCache::with_config(CacheConfig { max_resident_bytes: 0 });
        let mut a = engine(2.0, 0.05);
        let mut b = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a), AdoptOutcome::Miss);
        assert_eq!(cache.adopt(&mut b), AdoptOutcome::Miss, "nothing is ever registered");
        let map_a = a.evaluate(&ms);
        let map_b = b.evaluate(&ms);
        assert_ne!(a.table::<f64>().as_ptr(), b.table::<f64>().as_ptr(), "private tables");
        let bits = |m: &crate::grid::VoteMap| -> Vec<u64> {
            m.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&reference), bits(&map_a));
        assert_eq!(bits(&reference), bits(&map_b));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions, stats.resident_bytes), (0, 0, 0));
        assert_eq!(stats.hits + stats.misses, 2);
    }

    #[test]
    fn rebuilt_tables_are_bit_identical_to_evicted_ones() {
        let one = engine(2.0, 0.05).table_bytes();
        let cache = TableCache::with_config(CacheConfig { max_resident_bytes: one });
        let mut a1 = engine(2.0, 0.05);
        cache.adopt(&mut a1);
        let original: Vec<u64> = a1.table::<f64>().iter().map(|v| v.to_bits()).collect();
        let mut b = engine(3.0, 0.05);
        cache.adopt(&mut b); // evicts A
        let mut a2 = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a2), AdoptOutcome::Rebuild); // evicts B
        let rebuilt: Vec<u64> = a2.table::<f64>().iter().map(|v| v.to_bits()).collect();
        assert_eq!(original, rebuilt);
        assert_ne!(a1.table::<f64>().as_ptr(), a2.table::<f64>().as_ptr());
        // A second sharer of the rebuilt entry is a plain hit.
        let mut a3 = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a3), AdoptOutcome::Hit);
        assert_eq!(a2.table::<f64>().as_ptr(), a3.table::<f64>().as_ptr());
    }

    #[test]
    fn quantized_precisions_share_one_entry_and_break_out_bytes() {
        let cache = TableCache::new();
        let mut a = engine(2.0, 0.05);
        let mut b16 = engine(2.0, 0.05);
        b16.set_precision(TablePrecision::I16);
        let mut c16 = engine(2.0, 0.05);
        c16.set_precision(TablePrecision::I16);
        let mut d8 = engine(2.0, 0.05);
        d8.set_precision(TablePrecision::I8);
        assert_eq!(cache.adopt(&mut a), AdoptOutcome::Miss);
        assert_eq!(cache.adopt(&mut b16), AdoptOutcome::Hit, "precision is not in the key");
        assert_eq!(cache.adopt(&mut c16), AdoptOutcome::Hit);
        assert_eq!(cache.adopt(&mut d8), AdoptOutcome::Hit);
        a.prebuild();
        b16.prebuild();
        d8.prebuild();
        // b and c share one physical i16 table.
        assert_eq!(b16.table::<i16>().as_ptr(), c16.table::<i16>().as_ptr());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.built_tables, 3);
        let f64_bytes = (a.table::<f64>().len() * std::mem::size_of::<f64>()) as u64;
        assert_eq!(
            stats.resident_bytes_by_precision,
            [f64_bytes, 0, f64_bytes / 4, f64_bytes / 8]
        );
        // Conservation: the per-precision breakdown sums to the aggregate.
        assert_eq!(stats.resident_bytes, stats.resident_bytes_by_precision.iter().sum::<u64>());
    }

    #[test]
    fn byte_pressure_drops_f64_slot_before_evicting_a_deployment() {
        // Budget fits exactly one f64 table plus its i16 sibling. Key A
        // becomes double-resident; adopting key B at f64 must then drop
        // A's f64 *slot* (keeping A's i16 table serving) instead of
        // evicting either deployment outright.
        let f64_bytes = engine(2.0, 0.05).table_bytes();
        let i16_bytes = f64_bytes / 4;
        let cache =
            TableCache::with_config(CacheConfig { max_resident_bytes: f64_bytes + i16_bytes });

        let mut a64 = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a64), AdoptOutcome::Miss);
        a64.prebuild();
        let mut a16 = engine(2.0, 0.05);
        a16.set_precision(TablePrecision::I16);
        assert_eq!(cache.adopt(&mut a16), AdoptOutcome::Hit);
        a16.prebuild();

        let mut b64 = engine(3.0, 0.05);
        assert_eq!(cache.adopt(&mut b64), AdoptOutcome::Miss);
        b64.prebuild();
        let stats = cache.stats();
        assert_eq!(stats.slot_drops, 1, "A's f64 slot dropped");
        assert_eq!(stats.evictions, 0, "no deployment lost entirely");
        assert_eq!(stats.entries, 2, "both keys still resident");
        assert_eq!(
            stats.resident_bytes_by_precision,
            [f64_bytes, 0, i16_bytes, 0],
            "B's f64 plus A's surviving i16"
        );
        assert!(stats.resident_bytes <= cache.config().max_resident_bytes);
        // The engine that shared the dropped slot keeps its table alive.
        assert!(a64.is_table_built());

        // Re-adopting A at f64 is a Rebuild of the dropped slot; room is
        // made by stage-2 eviction of B this time (nothing is
        // double-resident anymore except A itself, which is excluded).
        let mut a64_again = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a64_again), AdoptOutcome::Rebuild);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.slot_drops, 1);
        // Fresh slot: the rebuild produces the same bits at a new address.
        let original: Vec<u64> = a64.table::<f64>().iter().map(|v| v.to_bits()).collect();
        let rebuilt: Vec<u64> = a64_again.table::<f64>().iter().map(|v| v.to_bits()).collect();
        assert_eq!(original, rebuilt);
        assert_ne!(a64.table::<f64>().as_ptr(), a64_again.table::<f64>().as_ptr());
    }

    #[test]
    fn precision_upgrade_charge_respects_budget() {
        // Budget fits one f64 table plus an f32 sibling, but not two keys.
        let f64_bytes = engine(2.0, 0.05).table_bytes();
        let cache =
            TableCache::with_config(CacheConfig { max_resident_bytes: f64_bytes + f64_bytes / 2 });
        let mut a = engine(2.0, 0.05);
        assert_eq!(cache.adopt(&mut a), AdoptOutcome::Miss);
        let mut a32 = engine(2.0, 0.05);
        a32.set_precision(TablePrecision::F32);
        // Charging the f32 width of the same key fits without eviction.
        assert_eq!(cache.adopt(&mut a32), AdoptOutcome::Hit);
        a.prebuild();
        a32.prebuild();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert!(stats.resident_bytes <= cache.config().max_resident_bytes);
    }
}
