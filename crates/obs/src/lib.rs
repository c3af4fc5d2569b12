//! lhrs-obs: the workspace-wide observability layer.
//!
//! One [`Metrics`] handle carries three instruments:
//!
//! - **counters** — cheap saturating [`AtomicU64`]s, optionally labeled
//!   (e.g. `msgs_sent{kind="insert"}`);
//! - **histograms** — fixed power-of-two-bucket latency histograms
//!   ([`Histogram`]);
//! - **a trace log** — a bounded ring buffer of structured [`Event`]s
//!   ([`TraceLog`]), each stamped with a timestamp.
//!
//! The same handle is threaded through `lhrs_sim::Env` (so every actor is
//! instrumented identically in the simulator and over TCP) and cloned into
//! hosts and transports; clones share state. Timestamps come from the
//! [`Clock`] seam: `Clock::Logical` defers to caller-supplied sim time,
//! `Clock::wall()` measures microseconds since an epoch `Instant`.
//!
//! `Metrics::disabled()` is a no-op handle: every operation short-circuits
//! on a `None` inner pointer, so instrumentation costs ~one branch when
//! observability is off.
//!
//! Snapshots render to Prometheus text exposition format
//! ([`Snapshot::render_prometheus`]) and the trace log to JSONL; a derived
//! [`RecoveryReport`] condenses a drill run into the paper's recovery
//! metrics (shards rebuilt, bytes moved, duration, messages by type).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic audit, helper scope: no aborts and no unchecked arithmetic
// outside tests (DESIGN §8.2).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
    )
)]

mod event;
mod hist;
mod json;
mod report;
mod trace;

pub use event::{Event, TimedEvent};
pub use hist::{Histogram, HistogramSnapshot, BUCKET_BOUNDS_US};
pub use report::{RecoveryReport, RestartReport};
pub use trace::{TraceLog, DEFAULT_TRACE_CAPACITY};

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Counter key: `(name, label)`; unlabeled counters use `label = ""`.
type Key = (&'static str, &'static str);

/// Source of [`Inner::id`]: every registry a process creates gets its own.
/// Starts at 1 so an empty [`CellCache`] (registry 0) matches none.
static NEXT_REGISTRY: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's resolved counter cells (see [`Metrics::add_kind`]).
    static CELLS: RefCell<CellCache> = RefCell::new(CellCache::default());
}

/// One thread's `(name, label)` → cell map for a single registry.
#[derive(Default)]
struct CellCache {
    /// The [`Inner::id`] whose cells `cells` holds (0: none yet).
    registry: u64,
    cells: HashMap<CellKey, Arc<AtomicU64>>,
}

/// A [`Key`] that hashes and compares by string contents, so equal
/// literals from different crates share one entry, as they share one cell
/// in the registry — but compares addresses first. A hit is nearly always
/// the very literal that made the entry, and comparing the contents of an
/// empty label (a dangling pointer) costs a hundred nanoseconds where
/// `memcmp` uses masked vector loads.
#[derive(Clone, Copy)]
struct CellKey(Key);

impl PartialEq for CellKey {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &str, b: &str| std::ptr::eq(a, b) || a == b;
        same(self.0 .0, other.0 .0) && same(self.0 .1, other.0 .1)
    }
}

impl Eq for CellKey {}

impl Hash for CellKey {
    /// By contents, as [`PartialEq`] decides in the end.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// The timestamp source for trace events recorded without an explicit
/// caller-supplied time.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Logical time: the recording site supplies timestamps (simulated
    /// microseconds). [`Clock::now_us`] reads 0.
    Logical,
    /// Wall time: microseconds elapsed since the contained epoch.
    Wall(Instant),
}

impl Clock {
    /// A wall clock anchored at "now".
    pub fn wall() -> Clock {
        Clock::Wall(Instant::now())
    }

    /// The logical (caller-timestamped) clock.
    pub fn logical() -> Clock {
        Clock::Logical
    }

    /// Microseconds on this clock: elapsed-since-epoch for wall clocks,
    /// 0 for the logical clock (logical sites pass their own `now`).
    pub fn now_us(&self) -> u64 {
        match self {
            Clock::Logical => 0,
            Clock::Wall(epoch) => u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
        }
    }

    /// Stable label for reports ("logical-us" / "wall-us").
    pub fn label(&self) -> &'static str {
        match self {
            Clock::Logical => "logical-us",
            Clock::Wall(_) => "wall-us",
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Process-unique: tells one thread's cached cells of this registry
    /// from those of another.
    id: u64,
    clock: Clock,
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    trace: TraceLog,
}

/// Recover from mutex poisoning: registry maps hold plain data with no
/// cross-panic invariants, and the observer must never abort the observed
/// system.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn saturating_add(cell: &AtomicU64, delta: u64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(delta))
    });
}

impl Inner {
    /// The registry's cell for `(name, label)`, created on first touch.
    fn cell(&self, key: Key) -> Arc<AtomicU64> {
        let mut map = lock_or_recover(&self.counters);
        Arc::clone(map.entry(key).or_default())
    }

    /// Add `delta` through this thread's cached cell, resolving it once;
    /// `false` if the thread's cache is unavailable (being torn down).
    fn add_cached(&self, key: Key, delta: u64) -> bool {
        let added = CELLS.try_with(|cache| {
            let Ok(mut cache) = cache.try_borrow_mut() else {
                return false;
            };
            if cache.registry != self.id {
                cache.cells.clear();
                cache.registry = self.id;
            }
            let cell = cache
                .cells
                .entry(CellKey(key))
                .or_insert_with(|| self.cell(key));
            saturating_add(cell, delta);
            true
        });
        added.unwrap_or(false)
    }
}

/// A cloneable, thread-safe observability handle. Clones share state;
/// [`Metrics::disabled`] handles do nothing.
#[derive(Debug, Clone)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
}

impl Default for Metrics {
    /// The default handle is **disabled** — instrumentation is opt-in.
    fn default() -> Self {
        Metrics::disabled()
    }
}

impl Metrics {
    /// An enabled registry using `clock` for implicit timestamps and the
    /// default trace capacity.
    pub fn new(clock: Clock) -> Metrics {
        Metrics::with_trace_capacity(clock, DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled registry with an explicit trace-ring capacity.
    pub fn with_trace_capacity(clock: Clock, capacity: usize) -> Metrics {
        Metrics {
            inner: Some(Arc::new(Inner {
                id: NEXT_REGISTRY.fetch_add(1, Ordering::Relaxed),
                clock,
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                trace: TraceLog::with_capacity(capacity),
            })),
        }
    }

    /// The no-op handle: every operation returns immediately.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the registry's [`Clock`] (0 when disabled or
    /// logical).
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_us())
    }

    /// The clock label ("logical-us"/"wall-us"; "disabled" for the no-op
    /// handle).
    pub fn clock_label(&self) -> &'static str {
        self.inner.as_ref().map_or("disabled", |i| i.clock.label())
    }

    /// Add 1 to the unlabeled counter `name`.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Add `delta` to the unlabeled counter `name` (saturating).
    pub fn add(&self, name: &'static str, delta: u64) {
        self.add_kind(name, "", delta);
    }

    /// Add 1 to the labeled counter `name{kind=label}`.
    pub fn incr_kind(&self, name: &'static str, label: &'static str) {
        self.add_kind(name, label, 1);
    }

    /// Add `delta` to the labeled counter `name{kind=label}` (saturating).
    ///
    /// The registry's map is locked only the first time a thread touches
    /// `(name, label)`: the cell found there is cached per thread and added
    /// to directly from then on. The cache holds one registry's cells at a
    /// time — a thread that moves to another registry starts over — so it
    /// never outgrows the set of counters one registry has.
    pub fn add_kind(&self, name: &'static str, label: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        if !inner.add_cached((name, label), delta) {
            saturating_add(&inner.cell((name, label)), delta);
        }
    }

    /// Read the unlabeled counter `name` (0 if never touched or disabled).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counter_kind(name, "")
    }

    /// Read the labeled counter `name{kind=label}`.
    pub fn counter_kind(&self, name: &'static str, label: &'static str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let map = lock_or_recover(&inner.counters);
        map.get(&(name, label))
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Sum of all labels of counter `name` (including the unlabeled cell).
    pub fn counter_total(&self, name: &'static str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let map = lock_or_recover(&inner.counters);
        map.iter()
            .filter(|((n, _), _)| *n == name)
            .fold(0u64, |acc, (_, c)| {
                acc.saturating_add(c.load(Ordering::Relaxed))
            })
    }

    /// Record one latency observation into histogram `name`.
    pub fn observe_us(&self, name: &'static str, value_us: u64) {
        let Some(inner) = &self.inner else { return };
        let hist = {
            let mut map = lock_or_recover(&inner.hists);
            Arc::clone(map.entry(name).or_insert_with(Default::default))
        };
        hist.observe(value_us);
    }

    /// Snapshot histogram `name`, if it has ever been observed.
    pub fn histogram(&self, name: &'static str) -> Option<HistogramSnapshot> {
        let inner = self.inner.as_ref()?;
        let map = lock_or_recover(&inner.hists);
        map.get(name).map(|h| h.snapshot())
    }

    /// Record a trace event stamped with the caller's timestamp (simulated
    /// or wall µs). Also bumps the `events{kind=<event type>}` counter.
    pub fn trace(&self, at_us: u64, event: Event) {
        let Some(inner) = &self.inner else { return };
        self.incr_kind("events", event.kind());
        inner.trace.push(at_us, event);
    }

    /// Record a trace event stamped by the registry's own [`Clock`] — for
    /// recording sites without access to an actor environment (transport
    /// reader threads, host loops).
    pub fn trace_now(&self, event: Event) {
        self.trace(self.now_us(), event);
    }

    /// The retained trace events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.trace.events())
    }

    /// The trace log (for capacity/drop introspection), when enabled.
    pub fn trace_log(&self) -> Option<&TraceLog> {
        self.inner.as_ref().map(|i| &i.trace)
    }

    /// Render the retained trace as JSONL (empty string when disabled).
    pub fn trace_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |i| i.trace.to_jsonl())
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = {
            let map = lock_or_recover(&inner.counters);
            map.iter()
                .map(|((name, label), cell)| CounterSample {
                    name: (*name).to_string(),
                    label: (*label).to_string(),
                    value: cell.load(Ordering::Relaxed),
                })
                .collect()
        };
        let histograms = {
            let map = lock_or_recover(&inner.hists);
            map.iter()
                .map(|(name, h)| ((*name).to_string(), h.snapshot()))
                .collect()
        };
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Shorthand: render the current [`Snapshot`] as Prometheus text.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// One counter reading inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Counter name (e.g. `msgs_sent`).
    pub name: String,
    /// `kind` label value; empty for unlabeled counters.
    pub label: String,
    /// The reading.
    pub value: u64,
}

/// A point-in-time copy of a [`Metrics`] registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters, sorted by (name, label).
    pub counters: Vec<CounterSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Read one counter back out of the snapshot (`label = ""` for
    /// unlabeled).
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map_or(0, |c| c.value)
    }

    /// The difference `self - earlier`, counter by counter: what a
    /// registry counted between two snapshots. Cost an operation by
    /// snapshotting, running it, and diffing. Histograms are left out.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSample {
                value: c.value.saturating_sub(earlier.counter(&c.name, &c.label)),
                ..c.clone()
            })
            .collect();
        Snapshot {
            counters,
            histograms: Vec::new(),
        }
    }

    /// Messages sent per kind (`msgs_sent{kind}`), in kind order.
    pub fn messages_by_kind(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name == "msgs_sent" && !c.label.is_empty())
            .map(|c| (c.label.as_str(), c.value))
    }

    /// Messages sent of one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.counter("msgs_sent", kind)
    }

    /// Messages sent, every kind together: the SDDS papers' "number of
    /// messages" (a multicast counts once per recipient).
    pub fn total_messages(&self) -> u64 {
        self.messages_by_kind()
            .fold(0u64, |acc, (_, v)| acc.saturating_add(v))
    }

    /// Payload bytes sent, every kind together (`msgs_sent_bytes`).
    pub fn total_bytes(&self) -> u64 {
        self.counter("msgs_sent_bytes", "")
    }

    /// Render in Prometheus text exposition format. Counter names gain the
    /// `lhrs_` prefix and `_total` suffix; labeled counters render a
    /// `kind` label.
    pub fn render_prometheus(&self) -> String {
        let mut out =
            String::with_capacity(self.counters.len().saturating_add(1).saturating_mul(64));
        let mut last_name = "";
        for c in &self.counters {
            if c.name != last_name {
                out.push_str(&format!("# TYPE lhrs_{}_total counter\n", c.name));
                last_name = &c.name;
            }
            if c.label.is_empty() {
                out.push_str(&format!("lhrs_{}_total {}\n", c.name, c.value));
            } else {
                out.push_str(&format!(
                    "lhrs_{}_total{{kind=\"{}\"}} {}\n",
                    c.name, c.label, c.value
                ));
            }
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE lhrs_{name}_us histogram\n"));
            let mut cum = 0u64;
            for (i, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                cum = cum.saturating_add(h.counts.get(i).copied().unwrap_or(0));
                out.push_str(&format!("lhrs_{name}_us_bucket{{le=\"{bound}\"}} {cum}\n"));
            }
            out.push_str(&format!(
                "lhrs_{name}_us_bucket{{le=\"+Inf\"}} {}\n",
                h.count
            ));
            out.push_str(&format!("lhrs_{name}_us_sum {}\n", h.sum_us));
            out.push_str(&format!("lhrs_{name}_us_count {}\n", h.count));
        }
        out
    }
}

/// Parse a Prometheus text snapshot back into `(series, value)` pairs,
/// where `series` is the full sample name including any label set (e.g.
/// `lhrs_msgs_sent_total{kind="insert"}`). Comment and malformed lines are
/// skipped — the scraper side of the [`Snapshot::render_prometheus`] seam,
/// used by `lhrs-netcli stats`, drill assertions, and CI.
pub fn parse_prometheus(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.trim().parse::<u64>() else {
            continue;
        };
        out.push((series.trim().to_string(), value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let m = Metrics::disabled();
        m.incr("x");
        m.add_kind("msgs_sent", "insert", 5);
        m.observe_us("op_latency", 42);
        m.trace(1, Event::KRaised { k: 2 });
        assert!(!m.is_enabled());
        assert_eq!(m.counter("x"), 0);
        assert_eq!(m.counter_kind("msgs_sent", "insert"), 0);
        assert!(m.histogram("op_latency").is_none());
        assert!(m.events().is_empty());
        assert_eq!(m.snapshot(), Snapshot::default());
        assert_eq!(m.render_prometheus(), "");
        assert_eq!(m.now_us(), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = Metrics::new(Clock::logical());
        let b = a.clone();
        a.incr("hits");
        b.add("hits", 2);
        assert_eq!(a.counter("hits"), 3);
        b.trace(9, Event::DegradedRead { group: 1 });
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        // The registry is hammered from the host loop, the TCP reader
        // threads, and STATS pulls at once; totals must stay exact. The
        // writers start together, so every cell's first touch — the one
        // that goes through the registry's map — is raced by all of them
        // and by the snapshots.
        const THREADS: usize = 8;
        const ROUNDS: u64 = 1_000;
        const FRESH: [&str; 4] = ["fresh_a", "fresh_b", "fresh_c", "fresh_d"];
        let m = Metrics::new(Clock::logical());
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (m, start) = (m.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let kind = if t % 2 == 0 { "insert" } else { "lookup" };
                    start.wait();
                    for i in 0..ROUNDS {
                        m.incr(FRESH[i as usize % FRESH.len()]);
                        m.incr_kind("msgs_sent", kind);
                        m.observe_us("op_latency", i);
                        m.trace(i, Event::DegradedRead { group: t as u64 });
                        // Concurrent readers must never see torn state.
                        if i % 251 == 0 {
                            let _ = m.snapshot();
                            let _ = m.render_prometheus();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(m.counter_total("msgs_sent"), THREADS as u64 * ROUNDS);
        assert_eq!(m.counter_kind("msgs_sent", "insert"), 4 * ROUNDS);
        assert_eq!(m.counter_kind("msgs_sent", "lookup"), 4 * ROUNDS);
        for name in FRESH {
            assert_eq!(m.counter(name), THREADS as u64 * ROUNDS / 4, "{name}");
        }
        let snap = m.snapshot();
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "op_latency")
            .expect("histogram recorded");
        assert_eq!(hist.count, THREADS as u64 * ROUNDS);
        if let Some(log) = m.trace_log() {
            assert_eq!(log.pushed(), THREADS as u64 * ROUNDS);
        }
    }

    #[test]
    fn two_registries_on_one_thread_never_count_into_each_other() {
        let (a, b) = (
            Metrics::new(Clock::logical()),
            Metrics::new(Clock::logical()),
        );
        for _ in 0..100 {
            a.incr("hits");
            b.add("hits", 2);
            a.incr_kind("msgs_sent", "insert");
            b.incr_kind("msgs_sent", "lookup");
        }
        assert_eq!((a.counter("hits"), b.counter("hits")), (100, 200));
        assert_eq!(a.counter_kind("msgs_sent", "insert"), 100);
        assert_eq!(a.counter_kind("msgs_sent", "lookup"), 0);
        assert_eq!(b.counter_kind("msgs_sent", "lookup"), 100);
        assert_eq!(b.counter_kind("msgs_sent", "insert"), 0);
        // A registry created where a dropped one was cannot inherit its cells.
        drop(a);
        let c = Metrics::new(Clock::logical());
        c.incr("hits");
        assert_eq!((c.counter("hits"), b.counter("hits")), (1, 200));
    }

    #[test]
    fn equal_names_at_different_addresses_hit_one_cell() {
        // What two crates' copies of one literal look like.
        let name: &'static str = Box::leak(String::from("msgs_sent").into_boxed_str());
        let label: &'static str = Box::leak(String::from("insert").into_boxed_str());
        assert!(!std::ptr::eq(name, "msgs_sent") && !std::ptr::eq(label, "insert"));
        let m = Metrics::new(Clock::logical());
        m.incr_kind("msgs_sent", "insert");
        m.incr_kind(name, label);
        m.add_kind(name, "insert", 3);
        assert_eq!(m.counter_kind("msgs_sent", "insert"), 5);
        assert_eq!(m.snapshot().counters.len(), 1);
        assert_eq!(CELLS.with(|c| c.borrow().cells.len()), 1);
    }

    #[test]
    fn a_disabled_handle_stays_a_no_op_beside_a_cached_registry() {
        let m = Metrics::new(Clock::logical());
        m.incr("x");
        let off = Metrics::disabled();
        for _ in 0..10 {
            off.incr("x");
            off.add_kind("x", "", 5);
        }
        m.incr("x");
        assert_eq!((m.counter("x"), off.counter("x")), (2, 0));
        assert_eq!(off.snapshot(), Snapshot::default());
        // ... and it did not evict the enabled registry's cells.
        assert_eq!(
            CELLS.with(|c| c.borrow().registry),
            m.inner.as_ref().map(|i| i.id).unwrap()
        );
    }

    #[test]
    fn labeled_counters_and_totals() {
        let m = Metrics::new(Clock::logical());
        m.incr_kind("msgs_sent", "insert");
        m.incr_kind("msgs_sent", "insert");
        m.incr_kind("msgs_sent", "lookup");
        assert_eq!(m.counter_kind("msgs_sent", "insert"), 2);
        assert_eq!(m.counter_kind("msgs_sent", "lookup"), 1);
        assert_eq!(m.counter_total("msgs_sent"), 3);
        assert_eq!(m.counter_kind("msgs_sent", "delete"), 0);
    }

    #[test]
    fn counters_saturate() {
        let m = Metrics::new(Clock::logical());
        m.add("big", u64::MAX - 1);
        m.add("big", 5);
        assert_eq!(m.counter("big"), u64::MAX);
    }

    #[test]
    fn prometheus_roundtrip_through_parser() {
        let m = Metrics::new(Clock::logical());
        m.incr_kind("msgs_sent", "insert");
        m.add("recovery_shards_rebuilt", 2);
        m.observe_us("op_latency", 3);
        let text = m.render_prometheus();
        let parsed = parse_prometheus(&text);
        let get = |series: &str| {
            parsed
                .iter()
                .find(|(s, _)| s == series)
                .map(|(_, v)| *v)
                .unwrap_or(u64::MAX)
        };
        assert_eq!(get("lhrs_msgs_sent_total{kind=\"insert\"}"), 1);
        assert_eq!(get("lhrs_recovery_shards_rebuilt_total"), 2);
        assert_eq!(get("lhrs_op_latency_us_count"), 1);
        assert_eq!(get("lhrs_op_latency_us_bucket{le=\"4\"}"), 1);
        assert_eq!(get("lhrs_op_latency_us_bucket{le=\"1\"}"), 0);
    }

    #[test]
    fn snapshot_counter_lookup() {
        let m = Metrics::new(Clock::logical());
        m.incr_kind("events", "split_start");
        m.incr("deltas_applied");
        let snap = m.snapshot();
        assert_eq!(snap.counter("events", "split_start"), 1);
        assert_eq!(snap.counter("deltas_applied", ""), 1);
        assert_eq!(snap.counter("missing", ""), 0);
    }

    #[test]
    fn since_diffs_per_kind() {
        let m = Metrics::new(Clock::logical());
        m.incr_kind("msgs_sent", "a");
        m.add("msgs_sent_bytes", 10);
        let snap = m.snapshot();
        m.incr_kind("msgs_sent", "a");
        m.incr_kind("msgs_sent", "c");
        m.add("msgs_sent_bytes", 12);
        let d = m.snapshot().since(&snap);
        assert_eq!((d.count("a"), d.count("c"), d.count("nope")), (1, 1, 0));
        assert_eq!(d.total_messages(), 2);
        assert_eq!(d.total_bytes(), 12);
        let kinds: Vec<(&str, u64)> = d.messages_by_kind().collect();
        assert_eq!(kinds, [("a", 1), ("c", 1)]);
        // Against an empty snapshot the diff is the snapshot itself.
        assert_eq!(m.snapshot().since(&Snapshot::default()), m.snapshot());
    }

    #[test]
    fn wall_clock_advances() {
        let m = Metrics::new(Clock::wall());
        let a = m.now_us();
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        assert!(m.now_us() > a);
        assert_eq!(m.clock_label(), "wall-us");
    }
}
