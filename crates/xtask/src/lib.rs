//! lhrs-xtask: project-specific static analysis for the LH\*RS workspace.
//!
//! `cargo run -p lhrs-xtask -- lint` runs eight checks that generic tooling
//! (`clippy -D warnings`) cannot express because they encode *protocol*
//! invariants, not language idioms:
//!
//! 1. **panic-freedom** — the actor hot-path modules (see [`HOT_PATHS`])
//!    must not contain `.unwrap()`, `.expect(...)`, `panic!`/`unreachable!`
//!    macros, direct slice indexing, or narrowing `as` casts. LH\*RS sells
//!    k-availability; the protocol logic itself aborting on a malformed
//!    frame or a lagging peer defeats the whole design.
//! 2. **transitive-panic** — the same patterns (plus the `assert!` family)
//!    anywhere in `gf`/`rs`/`lh`/`obs`/`convert`/`wire` code *reachable*
//!    from the hot paths through the workspace call graph ([`graph`]); each
//!    finding prints the offending call chain.
//! 3. **unchecked-arithmetic** — raw `+`/`-`/`*`/`<<` on reachable
//!    helper-crate code; overflow semantics must be spelled out with
//!    `checked_`/`saturating_`/`wrapping_` (or justified).
//! 4. **drill-coverage** — every `CoordEvent` variant and every
//!    `restart_*`/`wal_*`/`recovery_*` counter must be asserted by at
//!    least one test, so a new failure path cannot land untested.
//! 5. **config-knob** — every `Config` field must be read somewhere (dead
//!    knobs silently ignore operator intent).
//! 6. **test-hygiene** — no bare `#[ignore]`, no sleep-based
//!    synchronization in `crates/net` tests.
//! 7. **obs-coverage** — every `Msg` variant must carry its own `fn kind`
//!    label (a `_ =>` wildcard would collapse new protocol messages into
//!    one counter bucket), and the `msgs_sent`/`msgs_recv` counter sites
//!    in the simulator and the TCP host must stay in place.
//! 8. **unused-allow** — every escape-hatch directive must still silence
//!    something; stale allows rot into false confidence.
//!
//! Two protocol guards need no source-text scanning and live elsewhere: a
//! `Msg` variant without a codec row is a compile error (the `wire.rs`
//! tables expand to a wildcard-free `match`), and the wire-tag pin is the
//! root test `tests/wire_manifest.rs`.
//!
//! Escape hatch: `// lhrs-lint: allow(<check>) reason="..."` on the finding
//! line or the line above. The reason string is mandatory and must be
//! nonempty — an allow without a justification is itself a finding.
//!
//! `--json` emits the findings as a machine-readable array for CI
//! annotation; see [`findings_to_json`].

#![forbid(unsafe_code)]

pub mod checks;
pub mod graph;
pub mod items;
pub mod source;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Panic-freedom audit of the actor hot paths.
    PanicFreedom,
    /// Transitive panic-reachability through the workspace call graph.
    TransitivePanic,
    /// Unchecked integer arithmetic on reachable helper-crate code.
    UncheckedArith,
    /// Drill coverage: events and counters asserted by tests.
    DrillCoverage,
    /// Dead-knob detection on `Config`.
    ConfigKnob,
    /// Test-attribute hygiene.
    TestHygiene,
    /// Observability coverage over `Msg` kinds and counter sites.
    ObsCoverage,
    /// Escape-hatch directives that no longer silence anything.
    UnusedAllow,
}

impl Check {
    /// The name used in `allow(<name>)` directives and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Check::PanicFreedom => "panic-freedom",
            Check::TransitivePanic => "transitive-panic",
            Check::UncheckedArith => "unchecked-arithmetic",
            Check::DrillCoverage => "drill-coverage",
            Check::ConfigKnob => "config-knob",
            Check::TestHygiene => "test-hygiene",
            Check::ObsCoverage => "obs-coverage",
            Check::UnusedAllow => "unused-allow",
        }
    }

    /// Every check name, for validating `allow(...)` directives.
    pub const ALL: [Check; 8] = [
        Check::PanicFreedom,
        Check::TransitivePanic,
        Check::UncheckedArith,
        Check::DrillCoverage,
        Check::ConfigKnob,
        Check::TestHygiene,
        Check::ObsCoverage,
        Check::UnusedAllow,
    ];
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The check that fired.
    pub check: Check,
    /// File label (workspace-relative path).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// `Some(reason)` when silenced by a justified escape hatch.
    pub allowed: Option<String>,
    /// For graph checks: the call chain `root → … → offending fn`.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.check.name(),
            self.message
        )?;
        if let Some(r) = &self.allowed {
            write!(f, " (allowed: {r})")?;
        }
        for (i, hop) in self.chain.iter().enumerate() {
            write!(f, "\n    {}{}", if i == 0 { "via " } else { "  → " }, hop)?;
        }
        Ok(())
    }
}

/// Hot-path modules governed by the strict per-file panic-freedom audit
/// (workspace-relative paths).
///
/// This is a subset of [`graph::ROOT_FILES`]: every file here is also a
/// reachability root, but the roots additionally include the client-side
/// orchestration modules (`file.rs`, `parity_bucket.rs`) whose *helpers*
/// must be panic-free transitively even though the modules themselves keep
/// driver-validated invariants that the per-file audit would reject.
pub const HOT_PATHS: [&str; 10] = [
    "crates/core/src/coordinator.rs",
    "crates/core/src/data_bucket.rs",
    "crates/core/src/client.rs",
    "crates/core/src/storage.rs",
    "crates/rs/src/code.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/transport.rs",
    "crates/net/src/host.rs",
    "crates/net/src/durable.rs",
    "crates/wal/src/lib.rs",
];

/// Does `dir` hold a `Cargo.toml` that opens a workspace of its own?
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Walk a directory tree collecting `.rs` files (sorted for determinism).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `target/` and dot-directories (`.git`, `.bench_build`) hold
            // no sources of ours; `crates/xtask` is the lint itself (its
            // sources and fixtures deliberately contain the patterns being
            // hunted); a directory with its own `[workspace]` (`benchmark/`)
            // is another workspace, not a member of this one.
            if name == "target"
                || name.starts_with('.')
                || path.ends_with("crates/xtask")
                || declares_workspace(&path)
            {
                continue;
            }
            rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Load every workspace source as `(workspace-relative label, text)`.
pub fn workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    rs_files(root, &mut files);
    files
        .into_iter()
        .filter_map(|p| {
            let label = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            fs::read_to_string(&p).ok().map(|text| (label, text))
        })
        .collect()
}

/// Run every check over the workspace rooted at `root`.
///
/// Returns *all* findings, including allowed ones (callers filter on
/// [`Finding::allowed`] to decide pass/fail).
pub fn run_all(root: &Path) -> Vec<Finding> {
    let sources = workspace_sources(root);
    let get =
        |label: &str| -> Option<&(String, String)> { sources.iter().find(|(l, _)| l == label) };
    let mut findings = Vec::new();

    // 1. Panic freedom over the hot paths.
    for hp in HOT_PATHS {
        if let Some((label, text)) = get(hp) {
            findings.extend(checks::check_panic_freedom(label, text));
        } else {
            findings.push(Finding {
                check: Check::PanicFreedom,
                file: hp.to_string(),
                line: 1,
                message: "hot-path module listed in lhrs_xtask::HOT_PATHS is missing".to_string(),
                allowed: None,
                chain: Vec::new(),
            });
        }
    }

    // 2. Config-knob coverage. The `ConfigBuilder` impl is excluded: its
    // setters *store* every knob, which must not count as the knob being
    // honored anywhere.
    if let Some((def_label, def_src)) = get("crates/core/src/config.rs") {
        findings.extend(checks::check_config_knobs(
            "Config",
            def_label,
            def_src,
            &sources,
            Some("ConfigBuilder"),
        ));
    }

    // 3. Test hygiene, workspace-wide.
    for (label, text) in &sources {
        let in_net = label.starts_with("crates/net/");
        findings.extend(checks::check_test_hygiene(label, text, in_net));
    }

    // 4. Observability coverage: per-variant kind labels on `Msg`, and the
    // counter call sites that feed `msgs_sent`/`msgs_recv`.
    if let Some((msg_label, msg_src)) = get("crates/core/src/msg.rs") {
        let site = |label: &'static str| (label, get(label).map(|(_, t)| t.as_str()));
        let sites: Vec<checks::ObsSite<'_>> = OBS_SITES
            .iter()
            .map(|(label, needle, role)| {
                let (label, text) = site(label);
                (label, text, *needle, *role)
            })
            .collect();
        findings.extend(checks::check_obs_coverage(
            "Msg", msg_src, msg_label, msg_src, &sites,
        ));
    } else {
        findings.push(Finding {
            check: Check::ObsCoverage,
            file: "crates/core/src/msg.rs".to_string(),
            line: 1,
            message: "msg.rs missing".to_string(),
            allowed: None,
            chain: Vec::new(),
        });
    }

    // 5. Call-graph checks: transitive panic-reachability and unchecked
    // arithmetic over everything the actor hot paths can reach.
    let ws = items::WorkspaceIndex::build(&sources);
    let adj = graph::build_graph(&ws);
    let reach_info = graph::reach(&ws, &adj, |f| {
        graph::ROOT_FILES.contains(&ws.files[f.file].label.as_str())
    });
    findings.extend(graph::run_graph_checks(&ws, &reach_info));

    // 6. Drill coverage: CoordEvent variants and recovery counters must be
    // asserted by at least one test.
    if let Some((coord_label, coord_src)) = get("crates/core/src/coordinator.rs") {
        findings.extend(checks::check_drill_coverage(
            coord_label,
            coord_src,
            &sources,
        ));
    }

    // 7. Unused allows — runs last, over every other check's matches.
    let stale = check_unused_allows(&sources, &findings);
    findings.extend(stale);

    findings
}

/// Report escape-hatch directives that silence nothing (or name a check
/// that does not exist). A stale allow is worse than none: it advertises a
/// suppressed finding that is no longer there, and it would silently
/// re-arm if the pattern ever came back in a different shape.
pub fn check_unused_allows(sources: &[(String, String)], findings: &[Finding]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (label, text) in sources {
        let model = source::SourceModel::parse(text);
        for a in &model.allows {
            if !Check::ALL.iter().any(|c| c.name() == a.check) {
                out.push(Finding {
                    check: Check::UnusedAllow,
                    file: label.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) names an unknown check; valid names: {}",
                        a.check,
                        Check::ALL
                            .iter()
                            .map(|c| c.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    allowed: None,
                    chain: Vec::new(),
                });
                continue;
            }
            let used = findings.iter().any(|f| {
                f.file == *label
                    && f.check.name() == a.check
                    && (f.line == a.line || f.line == a.line + 1)
            });
            if !used {
                out.push(Finding {
                    check: Check::UnusedAllow,
                    file: label.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) no longer silences any finding; delete the stale escape hatch",
                        a.check
                    ),
                    allowed: None,
                    chain: Vec::new(),
                });
            }
        }
    }
    out
}

/// Render findings as a JSON array for CI annotation (`--json`). Hand-
/// rolled emission — the analyzer stays zero-dep.
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let chain = f
            .chain
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect::<Vec<_>>()
            .join(", ");
        let allowed = match &f.allowed {
            Some(r) => format!("\"{}\"", esc(r)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "  {{\"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"allowed\": {}, \"chain\": [{}]}}{}\n",
            f.check.name(),
            esc(&f.file),
            f.line,
            esc(&f.message),
            allowed,
            chain,
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

/// The counter call sites the obs-coverage check pins down: deleting any
/// one silently blinds the drill assertions built on the metrics.
pub const OBS_SITES: [(&str, &str, &str); 4] = [
    (
        "crates/sim/src/actor.rs",
        "incr_kind(\"msgs_sent\"",
        "Env::send",
    ),
    (
        "crates/sim/src/actor.rs",
        "add_kind(\"msgs_sent\"",
        "Env::multicast",
    ),
    (
        "crates/sim/src/engine.rs",
        "incr_kind(\"msgs_recv\"",
        "Sim::step",
    ),
    (
        "crates/net/src/host.rs",
        "incr_kind(\"msgs_recv\"",
        "NodeHost dispatch",
    ),
];

/// Format the `--fix-allow` output: one suggested escape-hatch comment per
/// unallowed finding, TODO-annotated so the residue stays visible in review.
pub fn fix_allow_report(findings: &[Finding]) -> String {
    let mut out = String::new();
    let open: Vec<_> = findings.iter().filter(|f| f.allowed.is_none()).collect();
    if open.is_empty() {
        out.push_str("no unallowed findings; nothing to emit\n");
        return out;
    }
    out.push_str(
        "# lhrs-lint allowlist — paste each comment on the line above its finding\n\
         # and replace the TODO with a real justification before merging.\n",
    );
    for f in open {
        out.push_str(&format!(
            "{}:{}:\n    // lhrs-lint: allow({}) reason=\"TODO: justify — {}\"\n",
            f.file,
            f.line,
            f.check.name(),
            f.message.replace('"', "'"),
        ));
    }
    out
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if declares_workspace(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
