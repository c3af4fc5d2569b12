//! The analyzer is itself tested: every check must fire on its seeded
//! fixture (exactly once per planted violation), stay silent on the
//! decoys, and honour the escape hatch.

use std::path::Path;

use lhrs_xtask::checks::{
    check_config_knobs, check_obs_coverage, check_panic_freedom, check_test_hygiene, enum_variants,
    struct_fields,
};
use lhrs_xtask::{fix_allow_report, run_all, Finding, OBS_SITES};

const PANIC_VIOLATIONS: &str = include_str!("fixtures/panic_violations.rs");
const PANIC_ALLOWED: &str = include_str!("fixtures/panic_allowed.rs");
const PANIC_BAD_ALLOW: &str = include_str!("fixtures/panic_bad_allow.rs");
const CONFIG_DEAD: &str = include_str!("fixtures/config_dead_knob.rs");
const CONFIG_BUILDER: &str = include_str!("fixtures/config_builder_knob.rs");
const HYGIENE: &str = include_str!("fixtures/hygiene_violations.rs");
const OBS_WILDCARD: &str = include_str!("fixtures/obs_kind_wildcard.rs");

fn unallowed(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.allowed.is_none()).collect()
}

#[test]
fn panic_freedom_fires_once_per_seeded_violation() {
    let findings = check_panic_freedom("fixtures/panic_violations.rs", PANIC_VIOLATIONS);
    let open = unallowed(&findings);
    let mut lines: Vec<usize> = open.iter().map(|f| f.line).collect();
    lines.dedup();
    assert_eq!(
        open.len(),
        6,
        "expected exactly 6 findings (one per seeded pattern), got:\n{:#?}",
        open
    );
    assert_eq!(lines.len(), 6, "each violation is on its own line");
    for needle in [
        ".unwrap()",
        ".expect()",
        "panic!",
        "unreachable!",
        "direct indexing",
        "`as u32`",
    ] {
        assert_eq!(
            open.iter().filter(|f| f.message.contains(needle)).count(),
            1,
            "expected exactly one `{needle}` finding"
        );
    }
}

#[test]
fn escape_hatch_silences_with_justification() {
    let findings = check_panic_freedom("fixtures/panic_allowed.rs", PANIC_ALLOWED);
    let open = unallowed(&findings);
    assert!(
        open.is_empty(),
        "justified allows must silence every finding, got:\n{:#?}",
        open
    );
    assert_eq!(
        findings.iter().filter(|f| f.allowed.is_some()).count(),
        6,
        "the six silenced findings are still reported as allowed residue"
    );
}

#[test]
fn escape_hatch_requires_nonempty_reason() {
    let findings = check_panic_freedom("fixtures/panic_bad_allow.rs", PANIC_BAD_ALLOW);
    let open = unallowed(&findings);
    assert_eq!(open.len(), 1);
    assert!(
        open[0].message.contains("justification"),
        "message should call out the missing reason: {}",
        open[0].message
    );
}

#[test]
fn codec_variant_extraction_sees_all_shapes() {
    let vars = enum_variants("Msg", OBS_WILDCARD).expect("enum found");
    assert_eq!(vars, ["Alpha", "Beta", "Gamma"]);
}

#[test]
fn config_check_flags_only_the_dead_knob() {
    let sources = vec![(
        "fixtures/config_dead_knob.rs".to_string(),
        CONFIG_DEAD.to_string(),
    )];
    let findings = check_config_knobs(
        "Config",
        "fixtures/config_dead_knob.rs",
        CONFIG_DEAD,
        &sources,
        None,
    );
    let open = unallowed(&findings);
    assert_eq!(open.len(), 1, "{:#?}", open);
    assert!(open[0].message.contains("dead_knob"));

    let (_, _, fields) = struct_fields("Config", CONFIG_DEAD).expect("struct found");
    let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["live_knob", "dead_knob", "nested"]);
}

#[test]
fn config_check_is_builder_aware() {
    let sources = vec![(
        "fixtures/config_builder_knob.rs".to_string(),
        CONFIG_BUILDER.to_string(),
    )];
    // Without exclusion, the builder's setter writes mask the dead knob.
    let masked = check_config_knobs(
        "Config",
        "fixtures/config_builder_knob.rs",
        CONFIG_BUILDER,
        &sources,
        None,
    );
    assert!(unallowed(&masked).is_empty(), "{:#?}", masked);
    // With the builder impl excluded, only the genuinely honored knob
    // survives: `builder_only_knob` is stored and validated by the builder
    // but read nowhere else, so it must be flagged.
    let findings = check_config_knobs(
        "Config",
        "fixtures/config_builder_knob.rs",
        CONFIG_BUILDER,
        &sources,
        Some("ConfigBuilder"),
    );
    let open = unallowed(&findings);
    assert_eq!(open.len(), 1, "{:#?}", open);
    assert!(open[0].message.contains("builder_only_knob"));
}

#[test]
fn hygiene_check_fires_on_bare_ignore_and_test_sleep() {
    let findings = check_test_hygiene(
        "crates/net/src/fixture.rs",
        HYGIENE,
        /* in_net = */ true,
    );
    let open = unallowed(&findings);
    assert_eq!(open.len(), 2, "{:#?}", open);
    assert_eq!(
        open.iter()
            .filter(|f| f.message.contains("#[ignore]"))
            .count(),
        1
    );
    assert_eq!(
        open.iter()
            .filter(|f| f.message.contains("sleep-based"))
            .count(),
        1
    );
    // Outside crates/net the sleep rule does not apply; the bare #[ignore]
    // still does.
    let findings = check_test_hygiene("crates/core/src/fixture.rs", HYGIENE, false);
    assert_eq!(unallowed(&findings).len(), 1);
}

#[test]
fn fix_allow_report_lists_open_findings_with_todo_reasons() {
    let findings = check_panic_freedom("fixtures/panic_violations.rs", PANIC_VIOLATIONS);
    let report = fix_allow_report(&findings);
    assert_eq!(
        report.matches("lhrs-lint: allow(panic-freedom)").count(),
        6,
        "one suggested directive per open finding:\n{report}"
    );
    assert!(report.contains("TODO: justify"));
}

#[test]
fn obs_check_flags_the_wildcard_kind_arm() {
    let findings = check_obs_coverage(
        "Msg",
        OBS_WILDCARD,
        "fixtures/obs_kind_wildcard.rs",
        OBS_WILDCARD,
        &[],
    );
    let open = unallowed(&findings);
    assert_eq!(open.len(), 1, "{:#?}", open);
    assert!(open[0].message.contains("Msg::Gamma"));
    assert!(open[0].message.contains("wildcard"));
}

#[test]
fn obs_check_verifies_counter_sites() {
    // A site whose needle is present stays silent; a gutted site and a
    // missing file each produce one finding.
    let good = r#"fn send() { self.obs.incr_kind("msgs_sent", msg.kind()); }"#;
    let bad = "fn send() { /* counters removed */ }";
    let findings = check_obs_coverage(
        "Msg",
        OBS_WILDCARD,
        "fixtures/obs_kind_wildcard.rs",
        OBS_WILDCARD,
        &[
            (
                "sim/actor.rs",
                Some(good),
                "incr_kind(\"msgs_sent\"",
                "Env::send",
            ),
            (
                "sim/engine.rs",
                Some(bad),
                "incr_kind(\"msgs_recv\"",
                "Sim::step",
            ),
            (
                "net/host.rs",
                None,
                "incr_kind(\"msgs_recv\"",
                "NodeHost dispatch",
            ),
        ],
    );
    let open = unallowed(&findings);
    let site_findings: Vec<_> = open
        .iter()
        .filter(|f| !f.message.contains("Msg::Gamma"))
        .collect();
    assert_eq!(site_findings.len(), 2, "{:#?}", site_findings);
    assert!(site_findings
        .iter()
        .any(|f| f.file == "sim/engine.rs" && f.message.contains("Sim::step")));
    assert!(site_findings
        .iter()
        .any(|f| f.file == "net/host.rs" && f.message.contains("file not found")));
}

/// Gutting the real `Env::send` counter call must break the obs check —
/// the regression it exists to catch.
#[test]
fn deleting_a_real_counter_site_breaks_the_obs_check() {
    let root = workspace_root();
    let msg_src = std::fs::read_to_string(root.join("crates/core/src/msg.rs")).expect("msg.rs");
    let actor_src =
        std::fs::read_to_string(root.join("crates/sim/src/actor.rs")).expect("actor.rs");
    let gutted = actor_src.replace("incr_kind(\"msgs_sent\"", "incr_kind(\"renamed\"");
    assert_ne!(gutted, actor_src, "the site we delete must exist");

    let sites: Vec<lhrs_xtask::checks::ObsSite<'_>> = OBS_SITES
        .iter()
        .map(|(label, needle, role)| {
            let text = if *label == "crates/sim/src/actor.rs" {
                gutted.as_str()
            } else {
                // Other sites aren't under test; feed them their needle.
                *needle
            };
            (*label, Some(text), *needle, *role)
        })
        .collect();
    let findings = check_obs_coverage("Msg", &msg_src, "crates/core/src/msg.rs", &msg_src, &sites);
    let open = unallowed(&findings);
    assert_eq!(open.len(), 1, "{:#?}", open);
    assert!(open[0].message.contains("Env::send"));
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
}

/// The acceptance gate: the real tree carries zero unallowed findings.
#[test]
fn real_workspace_is_clean() {
    let findings = run_all(workspace_root());
    let open = unallowed(&findings);
    assert!(
        open.is_empty(),
        "the workspace must lint clean; found:\n{}",
        open.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
