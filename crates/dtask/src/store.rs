//! Per-node object store: the out-of-band data plane's payload home.
//!
//! The paper's scalability argument is about keeping bulk data off the
//! control path. [`crate::datum::DatumRef`] handles travel through the
//! scheduler in place of payloads; the payloads themselves live here, one
//! [`ObjectStore`] per worker, shared by the worker's data server and every
//! executor slot:
//!
//! * **Zero-copy intra-process.** Entries hold [`Datum`]s whose arrays are
//!   `Arc`-shared, so a `get` on the holding node never copies the buffer.
//! * **Inter-node resolution.** Remote consumers resolve a handle with a
//!   framed `DataMsg::Fetch` to the holder's data server, which answers from
//!   this store (`DataReply::Value` on the reply lane — data plane, never
//!   the scheduler).
//! * **LRU eviction + spill.** Under a configurable memory budget
//!   ([`StoreConfig::mem_budget`]) the least-recently-used spillable entries
//!   are written to disk as single-chunk [`h5lite`] containers — the same
//!   I/O path as the paper's post-hoc baseline — and restored (bit-exact,
//!   NaN included) on next access. Restoration happens under the store lock,
//!   so concurrent gets of one spilled key restore it exactly once.
//!
//! Everything here is **off by default**: a store built from
//! [`StoreConfig::default`] is an unbounded in-memory map and no proxy
//! handles are ever produced, so default-config clusters behave — and
//! count messages — exactly as before.

use crate::datum::Datum;
use crate::key::Key;
use crate::stats::{Counter, SchedulerStats};
use crate::trace::{EventKind, TraceHandle};
use linalg::NDArray;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Object-store / proxy-plane configuration (part of
/// [`crate::ClusterConfig`]). The default disables proxies and bounds
/// nothing, reproducing the pre-store behavior byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Publish large control-path values (variables, queue items, task
    /// params) out-of-band as [`crate::datum::DatumRef`] handles? Off by
    /// default; consumers always know how to *resolve* handles either way.
    pub proxies: bool,
    /// Per-worker memory budget in payload bytes; entries beyond it are
    /// LRU-spilled to disk. `None` (default) never spills.
    pub mem_budget: Option<u64>,
    /// Values at or under this many payload bytes stay inline on the
    /// control path even with `proxies` on — a handle would be bigger.
    pub inline_threshold: u64,
    /// Spill directory; `None` (default) uses a per-store temp directory
    /// that is removed when the store drops.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            proxies: false,
            mem_budget: None,
            inline_threshold: 256,
            spill_dir: None,
        }
    }
}

impl StoreConfig {
    /// Proxies on with the default threshold and no spill budget.
    pub fn proxies() -> Self {
        StoreConfig {
            proxies: true,
            ..StoreConfig::default()
        }
    }

    /// Should `value` ride the control path inline (scalars, small values),
    /// or be published out-of-band behind a handle?
    pub fn keep_inline(&self, value: &Datum) -> bool {
        !self.proxies
            || value.nbytes() <= self.inline_threshold
            || !matches!(value, Datum::Array(_))
    }
}

/// One resident entry: in memory, or spilled to its own h5lite container.
enum Entry {
    Mem(Datum),
    Spilled {
        path: PathBuf,
        shape: Vec<usize>,
        nbytes: u64,
    },
}

impl Entry {
    fn nbytes(&self) -> u64 {
        match self {
            Entry::Mem(d) => d.nbytes(),
            Entry::Spilled { nbytes, .. } => *nbytes,
        }
    }
}

struct Inner {
    entries: HashMap<Key, Entry>,
    /// Keys from least- to most-recently used (touched on get/insert).
    lru: Vec<Key>,
    /// Payload bytes currently held in memory (spilled entries excluded).
    mem_bytes: u64,
    /// Monotonic spill-file sequence (also the restored entries' freshness).
    spill_seq: u64,
    /// Lazily created spill directory (removed on drop unless user-chosen).
    dir: Option<PathBuf>,
}

/// Distinguishes spill dirs of stores created in the same process.
static STORE_INSTANCE: AtomicUsize = AtomicUsize::new(0);

/// A worker's spillable object store. See the module docs.
pub struct ObjectStore {
    worker: usize,
    config: StoreConfig,
    stats: Arc<SchedulerStats>,
    trace: TraceHandle,
    instance: usize,
    inner: Mutex<Inner>,
}

impl ObjectStore {
    /// Build one worker's store.
    pub fn new(
        config: StoreConfig,
        worker: usize,
        stats: Arc<SchedulerStats>,
        trace: TraceHandle,
    ) -> Self {
        ObjectStore {
            worker,
            config,
            stats,
            trace,
            instance: STORE_INSTANCE.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: Vec::new(),
                mem_bytes: 0,
                spill_seq: 0,
                dir: None,
            }),
        }
    }

    /// An unbounded, untraced store (tests and standalone use).
    pub fn unbounded() -> Self {
        ObjectStore::new(
            StoreConfig::default(),
            0,
            Arc::new(SchedulerStats::new()),
            TraceHandle::disabled(),
        )
    }

    /// This store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Insert (or replace) an entry, then enforce the memory budget.
    pub fn insert(&self, key: Key, value: Datum) {
        let mut inner = self.inner.lock();
        self.remove_locked(&mut inner, &key);
        inner.mem_bytes += value.nbytes();
        inner.entries.insert(key.clone(), Entry::Mem(value));
        inner.lru.push(key.clone());
        self.evict_over_budget(&mut inner, Some(&key));
    }

    /// Look up an entry, restoring it from disk if it was spilled. Arrays
    /// come back `Arc`-shared — no copy on the holding node. Restoration
    /// runs under the store lock: concurrent gets of one spilled key do the
    /// disk read exactly once.
    pub fn get(&self, key: &Key) -> Option<Datum> {
        let mut inner = self.inner.lock();
        if !inner.entries.contains_key(key) {
            self.stats.add(Counter::StoreMisses, 1);
            self.trace.instant(EventKind::StoreMiss, Some(key), 0);
            return None;
        }
        self.touch(&mut inner, key);
        if let Some(Entry::Mem(value)) = inner.entries.get(key) {
            self.stats.add(Counter::StoreHits, 1);
            return Some(value.clone());
        }
        // Spilled: restore, re-admit as most-recently-used, re-balance the
        // budget against everything *else* (never re-spill what we return).
        let Some(Entry::Spilled {
            path,
            shape,
            nbytes,
        }) = inner.entries.remove(key)
        else {
            unreachable!("checked above");
        };
        let t0 = self.trace.start();
        let restored = read_spill(&path, &shape)
            .unwrap_or_else(|e| panic!("store w{}: restoring {key} failed: {e}", self.worker));
        let _ = std::fs::remove_file(&path);
        self.stats.add(Counter::StoreRestores, 1);
        self.stats.add(Counter::StoreHits, 1);
        self.trace
            .span(EventKind::StoreRestore, t0, Some(key), nbytes);
        let value = Datum::Array(Arc::new(restored));
        inner.mem_bytes += value.nbytes();
        inner.entries.insert(key.clone(), Entry::Mem(value.clone()));
        self.evict_over_budget(&mut inner, Some(key));
        Some(value)
    }

    /// Remove entries (dropping any spill files). Returns how many existed.
    pub fn remove(&self, keys: &[Key]) -> usize {
        let mut inner = self.inner.lock();
        keys.iter()
            .filter(|k| self.remove_locked(&mut inner, k))
            .count()
    }

    /// Remove every entry belonging to one tenant session (teardown sweep).
    /// Proxy payloads published by that session's client land here without
    /// the scheduler ever tracking a key for them, so teardown broadcasts a
    /// sweep instead of enumerating. Returns how many entries were dropped.
    pub fn remove_session(&self, session: crate::key::SessionId) -> usize {
        let mut inner = self.inner.lock();
        let doomed: Vec<Key> = inner
            .entries
            .keys()
            .filter(|k| k.session() == session)
            .cloned()
            .collect();
        doomed
            .iter()
            .filter(|k| self.remove_locked(&mut inner, k))
            .count()
    }

    /// Entry count, spilled entries included.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes, memory-resident and spilled together (what the
    /// worker memory report counts — spilling must not "free" data).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().entries.values().map(Entry::nbytes).sum()
    }

    /// Payload bytes currently resident in memory.
    pub fn mem_bytes(&self) -> u64 {
        self.inner.lock().mem_bytes
    }

    /// Keys currently spilled to disk (oldest-spill order not guaranteed).
    pub fn spilled_keys(&self) -> Vec<Key> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .filter(|(_, e)| matches!(e, Entry::Spilled { .. }))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Is this key present but spilled?
    pub fn is_spilled(&self, key: &Key) -> bool {
        matches!(
            self.inner.lock().entries.get(key),
            Some(Entry::Spilled { .. })
        )
    }

    /// Is this key present (in memory or spilled)?
    pub fn contains(&self, key: &Key) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// Trace a served proxy fetch (the data-server side of
    /// [`crate::msg::DataMsg::Fetch`]); requester-side byte accounting lives
    /// with the requester ([`SchedulerStats::record_proxy_fetch`]).
    pub fn note_fetch_served(&self, key: &Key, bytes: u64) {
        self.trace.instant(EventKind::StoreFetch, Some(key), bytes);
    }

    /// Worker memory report: entry count and total payload bytes (spilled
    /// entries included on both counts).
    pub fn report(&self) -> (usize, u64) {
        let inner = self.inner.lock();
        let bytes = inner.entries.values().map(Entry::nbytes).sum();
        (inner.entries.len(), bytes)
    }

    // ---- internals ---------------------------------------------------------

    /// Move `key` to the most-recently-used end.
    fn touch(&self, inner: &mut Inner, key: &Key) {
        if let Some(pos) = inner.lru.iter().position(|k| k == key) {
            let k = inner.lru.remove(pos);
            inner.lru.push(k);
        }
    }

    fn remove_locked(&self, inner: &mut Inner, key: &Key) -> bool {
        let Some(entry) = inner.entries.remove(key) else {
            return false;
        };
        match &entry {
            Entry::Mem(d) => inner.mem_bytes -= d.nbytes(),
            Entry::Spilled { path, .. } => {
                let _ = std::fs::remove_file(path);
            }
        }
        if let Some(pos) = inner.lru.iter().position(|k| k == key) {
            inner.lru.remove(pos);
        }
        true
    }

    /// Spill least-recently-used array entries until memory fits the
    /// budget. Non-array entries (scalars, lists, strings) and `protect`
    /// are never spilled; if only those remain, the store runs over budget
    /// rather than losing data.
    fn evict_over_budget(&self, inner: &mut Inner, protect: Option<&Key>) {
        let Some(budget) = self.config.mem_budget else {
            return;
        };
        let mut scan = 0usize;
        while inner.mem_bytes > budget && scan < inner.lru.len() {
            let key = inner.lru[scan].clone();
            if Some(&key) == protect {
                scan += 1;
                continue;
            }
            let spillable = matches!(
                inner.entries.get(&key),
                Some(Entry::Mem(Datum::Array(a))) if !a.shape().is_empty() && !a.is_empty()
            );
            if !spillable {
                scan += 1;
                continue;
            }
            let Some(Entry::Mem(Datum::Array(array))) = inner.entries.remove(&key) else {
                unreachable!("matched above");
            };
            let nbytes = netsim::sizing::f64_block_bytes(array.len());
            let seq = inner.spill_seq;
            inner.spill_seq += 1;
            let dir = self.spill_dir(inner);
            let path = dir.join(format!("spill-{seq}.h5l"));
            let t0 = self.trace.start();
            write_spill(&path, &array)
                .unwrap_or_else(|e| panic!("store w{}: spilling {key} failed: {e}", self.worker));
            self.stats.record_store_spill(nbytes);
            self.trace
                .span(EventKind::StoreSpill, t0, Some(&key), nbytes);
            inner.mem_bytes -= nbytes;
            inner.entries.insert(
                key,
                Entry::Spilled {
                    path,
                    shape: array.shape().to_vec(),
                    nbytes,
                },
            );
            // The key stays in the LRU list at its position: a restored
            // entry re-enters via `get`, which re-pushes it as MRU.
        }
    }

    /// The spill directory, created on first use.
    fn spill_dir(&self, inner: &mut Inner) -> PathBuf {
        if let Some(dir) = &inner.dir {
            return dir.clone();
        }
        let dir = self.config.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "dtask-store-{}-{}-w{}",
                std::process::id(),
                self.instance,
                self.worker
            ))
        });
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("store w{}: creating {dir:?} failed: {e}", self.worker));
        inner.dir = Some(dir.clone());
        dir
    }
}

impl Drop for ObjectStore {
    fn drop(&mut self) {
        // Only auto-created temp dirs are removed; a user-chosen spill_dir
        // outlives the store.
        let inner = self.inner.get_mut();
        if self.config.spill_dir.is_none() {
            if let Some(dir) = inner.dir.take() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ObjectStore")
            .field("worker", &self.worker)
            .field("entries", &inner.entries.len())
            .field("mem_bytes", &inner.mem_bytes)
            .finish()
    }
}

/// Write one array as a single-chunk h5lite container (the paper's post-hoc
/// I/O path): dataset `data`, chunk shape == array shape.
fn write_spill(path: &std::path::Path, array: &NDArray) -> Result<(), h5lite::FormatError> {
    let mut w = h5lite::H5Writer::create(path)?;
    let shape = array.shape().to_vec();
    w.create_dataset("data", &shape, &shape)?;
    w.write_chunk("data", &vec![0; shape.len()], array)?;
    w.close()
}

/// Read back a spill file written by [`write_spill`]. f64 payloads round-trip
/// as raw IEEE bits, so NaN and -0.0 survive bit-exactly.
fn read_spill(path: &std::path::Path, shape: &[usize]) -> Result<NDArray, h5lite::FormatError> {
    let r = h5lite::H5Reader::open(path)?;
    r.read_chunk("data", &vec![0; shape.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::new(s)
    }

    fn block(fill: f64, elems: usize) -> Datum {
        Datum::Array(Arc::new(NDArray::full(&[elems], fill)))
    }

    #[test]
    fn default_config_is_inert() {
        let c = StoreConfig::default();
        assert!(!c.proxies);
        assert_eq!(c.mem_budget, None);
        assert!(c.keep_inline(&block(1.0, 1 << 20)));
    }

    #[test]
    fn inline_threshold_gates_proxying() {
        let c = StoreConfig::proxies();
        assert!(c.keep_inline(&block(1.0, 4)), "32 B <= 256 B threshold");
        assert!(!c.keep_inline(&block(1.0, 64)), "512 B > 256 B threshold");
        assert!(
            c.keep_inline(&Datum::F64(1.0)),
            "scalars always stay inline"
        );
        assert!(
            c.keep_inline(&Datum::Str("x".repeat(4096))),
            "only arrays are proxied"
        );
    }

    #[test]
    fn unbounded_store_never_spills() {
        let store = ObjectStore::unbounded();
        for i in 0..64 {
            store.insert(key(&format!("k{i}")), block(i as f64, 128));
        }
        assert_eq!(store.len(), 64);
        assert_eq!(store.mem_bytes(), 64 * 1024);
        assert!(store.spilled_keys().is_empty());
    }

    #[test]
    fn arrays_come_back_arc_shared() {
        let store = ObjectStore::unbounded();
        let a = Arc::new(NDArray::full(&[8], 3.0));
        store.insert(key("a"), Datum::Array(Arc::clone(&a)));
        let got = store.get(&key("a")).unwrap();
        assert!(Arc::ptr_eq(got.as_array().unwrap(), &a), "zero-copy get");
    }

    #[test]
    fn lru_eviction_spills_oldest_first() {
        let stats = Arc::new(SchedulerStats::new());
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(2 * 1024),
                ..StoreConfig::default()
            },
            0,
            Arc::clone(&stats),
            TraceHandle::disabled(),
        );
        // Three 1 KiB blocks under a 2 KiB budget: inserting the third must
        // spill exactly the oldest.
        store.insert(key("a"), block(1.0, 128));
        store.insert(key("b"), block(2.0, 128));
        // Touch `a` so `b` becomes the LRU candidate.
        store.get(&key("a")).unwrap();
        store.insert(key("c"), block(3.0, 128));
        assert!(store.is_spilled(&key("b")), "LRU entry spills first");
        assert!(!store.is_spilled(&key("a")));
        assert!(!store.is_spilled(&key("c")));
        assert_eq!(stats.get(Counter::StoreSpills), 1);
        assert_eq!(stats.get(Counter::StoreSpillBytes), 1024);
        assert_eq!(store.mem_bytes(), 2 * 1024);
        assert_eq!(store.total_bytes(), 3 * 1024, "spilling frees no data");
        // Access the spilled entry: restored bit-exact, another entry spills.
        let b = store.get(&key("b")).unwrap();
        assert_eq!(b.as_array().unwrap().get(&[5]), 2.0);
        assert_eq!(stats.get(Counter::StoreRestores), 1);
        assert!(
            store.is_spilled(&key("a")) || store.is_spilled(&key("c")),
            "restoring over budget re-balances onto another entry"
        );
    }

    #[test]
    fn remove_drops_spill_files_and_dir_cleans_on_drop() {
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(0),
                ..StoreConfig::default()
            },
            7,
            Arc::new(SchedulerStats::new()),
            TraceHandle::disabled(),
        );
        store.insert(key("x"), block(1.0, 16));
        store.insert(key("y"), block(2.0, 16));
        // Budget 0: everything (except the freshly inserted protected key)
        // spills as soon as the next insert arrives.
        assert!(store.is_spilled(&key("x")));
        let spilled = store.spilled_keys();
        let dir = store.inner.lock().dir.clone().unwrap();
        assert!(dir.exists());
        store.remove(&spilled);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "remove deletes spill files"
        );
        drop(store);
        assert!(!dir.exists(), "temp spill dir removed on drop");
    }

    #[test]
    fn miss_counts_and_non_arrays_survive_pressure() {
        let stats = Arc::new(SchedulerStats::new());
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(8),
                ..StoreConfig::default()
            },
            0,
            Arc::clone(&stats),
            TraceHandle::disabled(),
        );
        assert!(store.get(&key("nope")).is_none());
        assert_eq!(stats.get(Counter::StoreMisses), 1);
        store.insert(key("s"), Datum::Str("not spillable".into()));
        store.insert(key("l"), Datum::List(vec![Datum::F64(0.5)]));
        // Over budget but nothing spillable: data is kept, not dropped.
        assert_eq!(store.len(), 2);
        assert!(store.spilled_keys().is_empty());
        assert_eq!(
            store.get(&key("s")).unwrap().as_str(),
            Some("not spillable")
        );
    }

    #[test]
    fn remove_session_sweeps_only_that_tenant() {
        let store = ObjectStore::unbounded();
        store.insert(Key::scoped(1, "a"), block(1.0, 16));
        store.insert(Key::scoped(1, "b"), block(2.0, 16));
        store.insert(Key::scoped(2, "a"), block(3.0, 16));
        store.insert(key("a"), block(4.0, 16));
        assert_eq!(store.remove_session(1), 2);
        assert_eq!(store.len(), 2);
        assert!(store.get(&Key::scoped(1, "a")).is_none());
        assert!(store.get(&Key::scoped(2, "a")).is_some());
        assert!(store.get(&key("a")).is_some(), "default session untouched");
        assert_eq!(store.remove_session(3), 0);
    }

    #[test]
    fn spill_restore_is_bit_exact_for_nan_and_negzero() {
        let store = ObjectStore::new(
            StoreConfig {
                mem_budget: Some(0),
                ..StoreConfig::default()
            },
            0,
            Arc::new(SchedulerStats::new()),
            TraceHandle::disabled(),
        );
        let weird = NDArray::from_fn(&[2, 2], |i| match (i[0], i[1]) {
            (0, 0) => f64::NAN,
            (0, 1) => -0.0,
            (1, 0) => f64::INFINITY,
            _ => 1.0 / 3.0,
        });
        store.insert(key("w"), Datum::from(weird));
        store.insert(key("force"), block(0.0, 4));
        assert!(store.is_spilled(&key("w")));
        let back = store.get(&key("w")).unwrap();
        let arr = back.as_array().unwrap();
        assert!(arr.get(&[0, 0]).is_nan());
        assert!(arr.get(&[0, 1]) == 0.0 && arr.get(&[0, 1]).is_sign_negative());
        assert_eq!(arr.get(&[1, 0]), f64::INFINITY);
        assert_eq!(arr.get(&[1, 1]), 1.0 / 3.0);
    }
}
