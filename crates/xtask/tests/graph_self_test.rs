//! Self-tests for the whole-workspace analyzer: call-graph
//! panic-reachability, unchecked arithmetic, drill coverage, and
//! stale-allow reporting — each against a seeded fixture, plus the
//! acceptance gates that a panic planted in the real `crates/gf` is traced
//! back to `data_bucket.rs`, one planted in the real wire decoder back to
//! the TCP transport, and one planted in the real allocation table back to
//! the coordinator, each with its full call chain.

use std::path::Path;

use lhrs_xtask::checks::check_drill_coverage;
use lhrs_xtask::graph::{build_graph, reach, run_graph_checks, ROOT_FILES};
use lhrs_xtask::items::WorkspaceIndex;
use lhrs_xtask::{check_unused_allows, workspace_sources, Check, Finding};

const GRAPH_ROOT: &str = include_str!("fixtures/graph_root_bucket.rs");
const GRAPH_HELPER: &str = include_str!("fixtures/graph_helper_panics.rs");
const DRILL_GAP: &str = include_str!("fixtures/drill_gap.rs");
const DRILL_COORD: &str = include_str!("fixtures/drill_coord.rs");
const UNUSED_ALLOW: &str = include_str!("fixtures/unused_allow.rs");

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
}

fn graph_findings(sources: &[(String, String)]) -> Vec<Finding> {
    let ws = WorkspaceIndex::build(sources);
    let adj = build_graph(&ws);
    let reach_info = reach(&ws, &adj, |f| {
        ROOT_FILES.contains(&ws.files[f.file].label.as_str())
    });
    run_graph_checks(&ws, &reach_info)
}

#[test]
fn panic_two_calls_deep_is_traced_to_the_hot_path() {
    let sources = vec![
        (
            "crates/core/src/data_bucket.rs".to_string(),
            GRAPH_ROOT.to_string(),
        ),
        (
            "crates/gf/src/helper.rs".to_string(),
            GRAPH_HELPER.to_string(),
        ),
    ];
    let findings = graph_findings(&sources);

    let panics: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.check == Check::TransitivePanic)
        .collect();
    // `panic!` plus the seeded `cell[0]` index in `inner_step`; the decoy's
    // `unreachable!` must NOT appear.
    assert!(
        panics
            .iter()
            .all(|f| f.file == "crates/gf/src/helper.rs" && !f.message.contains("unreachable")),
        "only reachable sites may fire: {panics:#?}"
    );
    let seeded: Vec<&&Finding> = panics
        .iter()
        .filter(|f| f.message.contains("panic!"))
        .collect();
    assert_eq!(seeded.len(), 1, "{panics:#?}");
    let chain = &seeded[0].chain;
    assert!(
        chain.len() >= 3,
        "root → helper_entry → inner_step is two hops: {chain:#?}"
    );
    assert!(chain[0].contains("data_bucket.rs") && chain[0].contains("on_message"));
    assert!(chain.last().unwrap().contains("inner_step"));

    let arith: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.check == Check::UncheckedArith)
        .collect();
    assert_eq!(arith.len(), 1, "{arith:#?}");
    assert!(arith[0].message.contains('+'));
}

#[test]
fn unasserted_drill_counter_is_flagged() {
    let sources = vec![
        (
            "crates/core/src/coordinator.rs".to_string(),
            DRILL_COORD.to_string(),
        ),
        (
            "crates/wal/src/fixture.rs".to_string(),
            DRILL_GAP.to_string(),
        ),
    ];
    let findings = check_drill_coverage("crates/core/src/coordinator.rs", DRILL_COORD, &sources);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`wal_rotations`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`window_full_stalls`")));
    // `recovery_probe_ok` and `inflight_launched` are asserted by the
    // fixture's test region and `CoordEvent::SplitDone` is named there
    // too — all three must stay silent.
}

#[test]
fn stale_and_unknown_allows_are_reported() {
    let sources = vec![(
        "fixtures/unused_allow.rs".to_string(),
        UNUSED_ALLOW.to_string(),
    )];
    let findings = check_unused_allows(&sources, &[]);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("no longer silences any finding")));
    assert!(findings.iter().any(|f| f.message.contains("unknown check")));
}

/// The acceptance gate: a panic planted in the real `crates/gf` kernel is
/// reported with a transitive call chain starting at `data_bucket.rs`.
#[test]
fn seeded_gf_panic_is_reachable_from_the_real_data_bucket() {
    let mut sources = workspace_sources(workspace_root());
    let field = sources
        .iter_mut()
        .find(|(l, _)| l == "crates/gf/src/field.rs")
        .expect("field.rs in workspace");
    let seeded = field.1.replace(
        "pub fn add_slice(src: &[u8], dst: &mut [u8]) {",
        "pub fn add_slice(src: &[u8], dst: &mut [u8]) {\n    panic!(\"seeded\");",
    );
    assert_ne!(seeded, field.1, "the kernel we sabotage must exist");
    field.1 = seeded;

    // Root the reachability at the data bucket alone: the chain the finding
    // carries must then pass through `data_bucket.rs` by construction (the
    // full root set would be free to discover the panic via another actor
    // first, e.g. the parity path through `rs/code.rs`).
    let ws = WorkspaceIndex::build(&sources);
    let adj = build_graph(&ws);
    let reach_info = reach(&ws, &adj, |f| {
        ws.files[f.file].label == "crates/core/src/data_bucket.rs"
    });
    let findings = run_graph_checks(&ws, &reach_info);
    let hit = findings
        .iter()
        .find(|f| {
            f.check == Check::TransitivePanic
                && f.file == "crates/gf/src/field.rs"
                && f.message.contains("panic!")
        })
        .unwrap_or_else(|| panic!("seeded panic not found: {findings:#?}"));
    assert!(
        hit.chain
            .iter()
            .any(|hop| hop.contains("crates/core/src/data_bucket.rs")),
        "chain must pass through the data bucket: {:#?}",
        hit.chain
    );
    assert!(
        hit.chain.last().unwrap().contains("add_slice"),
        "{:#?}",
        hit.chain
    );
}

/// The allocation table is helper scope: a panic planted in the real
/// `Registry::push_data` is traced back to the coordinator that edits it.
#[test]
fn seeded_registry_panic_is_reachable_from_the_real_coordinator() {
    let mut sources = workspace_sources(workspace_root());
    let registry = sources
        .iter_mut()
        .find(|(l, _)| l == "crates/core/src/registry.rs")
        .expect("registry.rs in workspace");
    let seeded = registry.1.replace(
        "pub fn push_data(&mut self, bucket: u64, node: NodeId) -> bool {",
        "pub fn push_data(&mut self, bucket: u64, node: NodeId) -> bool {\n        panic!(\"seeded\");",
    );
    assert_ne!(seeded, registry.1, "the mutator we sabotage must exist");
    registry.1 = seeded;

    let ws = WorkspaceIndex::build(&sources);
    let adj = build_graph(&ws);
    let reach_info = reach(&ws, &adj, |f| {
        ws.files[f.file].label == "crates/core/src/coordinator.rs"
    });
    let findings = run_graph_checks(&ws, &reach_info);
    let hit = findings
        .iter()
        .find(|f| {
            f.check == Check::TransitivePanic
                && f.file == "crates/core/src/registry.rs"
                && f.message.contains("panic!")
        })
        .unwrap_or_else(|| panic!("seeded panic not found: {findings:#?}"));
    assert!(
        hit.chain[0].contains("crates/core/src/coordinator.rs"),
        "{:#?}",
        hit.chain
    );
    assert!(
        hit.chain.last().unwrap().contains("Registry::push_data"),
        "{:#?}",
        hit.chain
    );
}

/// Moving the codec's arms into a table macro must not blind the call
/// graph: a panic planted in the real `Reader::varint` is reachable from
/// the TCP transport's frame handler through `decode_msg`.
#[test]
fn seeded_varint_panic_is_reachable_from_the_real_transport() {
    let mut sources = workspace_sources(workspace_root());
    let wire = sources
        .iter_mut()
        .find(|(l, _)| l == "crates/core/src/wire.rs")
        .expect("wire.rs in workspace");
    let seeded = wire.1.replace(
        "pub fn varint(&mut self) -> Result<u64, WireError> {",
        "pub fn varint(&mut self) -> Result<u64, WireError> {\n        panic!(\"seeded\");",
    );
    assert_ne!(seeded, wire.1, "the decoder we sabotage must exist");
    wire.1 = seeded;

    let ws = WorkspaceIndex::build(&sources);
    let adj = build_graph(&ws);
    let label = |f: &lhrs_xtask::items::FnItem| ws.files[f.file].label.as_str();

    // First hop: the transport's frame handler calls `decode_msg`.
    let decode = ws
        .fns
        .iter()
        .position(|f| f.name == "decode_msg" && label(f) == "crates/core/src/wire.rs")
        .expect("decode_msg is a fn item");
    let caller = ws
        .fns
        .iter()
        .enumerate()
        .find(|(i, f)| {
            label(f) == "crates/net/src/transport.rs"
                && !f.is_test
                && adj[*i].iter().any(|(callee, _)| *callee == decode)
        })
        .map(|(_, f)| f.name.as_str());
    assert_eq!(caller, Some("handle_frame"));

    // The rest: rooted at `decode_msg` alone, so the chain the finding
    // carries runs through it by construction (from the whole transport,
    // BFS prefers a shorter over-approximated edge such as `.len()`).
    let reach_info = reach(&ws, &adj, |f| {
        f.name == "decode_msg" && label(f) == "crates/core/src/wire.rs"
    });
    let findings = run_graph_checks(&ws, &reach_info);
    let hit = findings
        .iter()
        .find(|f| {
            f.check == Check::TransitivePanic
                && f.file == "crates/core/src/wire.rs"
                && f.message.contains("panic!")
        })
        .unwrap_or_else(|| panic!("seeded panic not found: {findings:#?}"));
    assert!(hit.chain[0].contains("decode_msg"), "{:#?}", hit.chain);
    assert!(
        hit.chain.last().unwrap().contains("Reader::varint"),
        "{:#?}",
        hit.chain
    );
}

/// Sources outside the root workspace are not ours to lint: `benchmark/`
/// (its own `[workspace]`) reports a `"window_ops"` JSON key and
/// `.bench_build/` holds build products; neither may surface as an
/// unasserted obs counter.
#[test]
fn foreign_workspaces_and_dot_directories_are_not_walked() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("walk_fixture");
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write(
        "crates/a/src/lib.rs",
        "fn f(o: &Obs) { o.incr(\"window_real\"); }\n",
    );
    write(
        "benchmark/Cargo.toml",
        "[package]\nname = \"b\"\n[workspace]\n",
    );
    write(
        "benchmark/src/run.rs",
        "fn g() -> &'static str { \"window_x\" }\n",
    );
    write(
        ".bench_build/debug/build/out.rs",
        "fn h() -> &'static str { \"window_y\" }\n",
    );

    let sources = workspace_sources(&root);
    let labels: Vec<&str> = sources.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["crates/a/src/lib.rs"]);

    let findings = check_drill_coverage("crates/core/src/coordinator.rs", "", &sources);
    let counters: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.message.contains("`window_"))
        .collect();
    assert_eq!(counters.len(), 1, "{findings:#?}");
    assert!(counters[0].message.contains("`window_real`"));
}
