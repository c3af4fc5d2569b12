//! The five protocol-invariant checks.
//!
//! Each check takes source text (already independent of the filesystem so
//! the seeded-violation fixtures can drive it directly) and returns
//! [`Finding`]s. Escape hatches (`// lhrs-lint: allow(<check>)
//! reason="..."`) are resolved here: a silenced finding is returned with
//! `allowed = Some(reason)` so callers can still display the residue, and a
//! directive with a missing/empty reason is itself a finding.

use crate::source::{next_brace_block, tokenize, SourceModel, Tok};
use crate::{Check, Finding};

/// Resolve the escape hatch for a raw finding.
fn apply_allow(model: &SourceModel, mut f: Finding) -> Finding {
    if let Some(a) = model.allow_for(f.check.name(), f.line) {
        match &a.reason {
            Some(r) => f.allowed = Some(r.clone()),
            None => {
                f.message = format!(
                    "{} (escape hatch present but reason=\"...\" is missing or empty; \
                     a justification string is required)",
                    f.message
                );
            }
        }
    }
    f
}

// ---------------------------------------------------------------------------
// Check 1: panic-freedom audit
// ---------------------------------------------------------------------------

/// Deny `.unwrap()`, `.expect(...)`, `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!`, direct slice indexing `expr[...]`, and narrowing `as`
/// casts in hot-path sources. Test-only code (`#[cfg(test)]` modules,
/// `#[test]` fns) is exempt.
pub fn check_panic_freedom(label: &str, source: &str) -> Vec<Finding> {
    let model = SourceModel::parse(source);
    let toks = tokenize(&model.masked);
    let mut out = Vec::new();
    let mut push = |offset: usize, message: String| {
        let line = model.line_of(offset);
        if model.line_in_test(line) {
            return;
        }
        out.push(apply_allow(
            &model,
            Finding {
                check: Check::PanicFreedom,
                file: label.to_string(),
                line,
                message,
                allowed: None,
                chain: Vec::new(),
            },
        ));
    };

    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    const NARROW_CASTS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

    for (idx, tok) in toks.iter().enumerate() {
        match tok {
            Tok::Ident { text, offset } if text == "unwrap" || text == "expect" => {
                let prev_dot = matches!(
                    idx.checked_sub(1).map(|p| &toks[p]),
                    Some(Tok::Punct { ch: b'.', .. })
                );
                let next_paren = matches!(toks.get(idx + 1), Some(Tok::Punct { ch: b'(', .. }));
                if prev_dot && next_paren {
                    push(
                        *offset,
                        format!(".{text}() panics on the error path; return a typed error instead"),
                    );
                }
            }
            Tok::Ident { text, offset } if PANIC_MACROS.contains(&text.as_str()) => {
                if matches!(toks.get(idx + 1), Some(Tok::Punct { ch: b'!', .. })) {
                    push(
                        *offset,
                        format!("{text}! aborts the actor; surface a degraded-mode event instead"),
                    );
                }
            }
            Tok::Ident { text, offset } if text == "as" => {
                if let Some(Tok::Ident { text: ty, .. }) = toks.get(idx + 1) {
                    if NARROW_CASTS.contains(&ty.as_str()) {
                        push(
                            *offset,
                            format!("`as {ty}` silently truncates; use a checked conversion"),
                        );
                    }
                }
            }
            Tok::Punct { ch: b'[', offset } => {
                // Indexing when the previous token can end an expression:
                // identifier, `)`, `]`, or `?`. (Attributes follow `#`,
                // array types follow `:`/`&`/`<`/`(`, macros follow `!`.)
                let is_index = match idx.checked_sub(1).map(|p| &toks[p]) {
                    Some(Tok::Ident { text, .. }) => {
                        // `impl Index<Range<usize>> for T` style or keyword
                        // positions (`in`, `return`, ...) are not expressions.
                        !matches!(
                            text.as_str(),
                            "in" | "return"
                                | "break"
                                | "if"
                                | "else"
                                | "match"
                                | "mut"
                                | "const"
                                | "static"
                                | "dyn"
                                | "where"
                                | "impl"
                                | "for"
                                | "let" // `let [a, b] = ...` slice patterns
                        )
                    }
                    Some(Tok::Punct { ch: b')', .. }) | Some(Tok::Punct { ch: b']', .. }) => true,
                    _ => false,
                };
                if is_index {
                    push(*offset, "direct indexing panics out of bounds; use .get()/.get_mut() or split_at_checked".to_string());
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Source extraction shared by the obs- and drill-coverage checks
// ---------------------------------------------------------------------------

/// Extract variant names from `pub enum <name> { ... }` in `enum_src`.
pub fn enum_variants(enum_name: &str, enum_src: &str) -> Option<Vec<String>> {
    let model = SourceModel::parse(enum_src);
    let needle = format!("enum {enum_name}");
    let mut from = 0usize;
    let pos = loop {
        let p = model.masked[from..].find(&needle)? + from;
        // Require a non-ident boundary after the name (`Msg` vs `MsgKind`).
        let after = p + needle.len();
        let boundary = model
            .masked
            .as_bytes()
            .get(after)
            .is_none_or(|b| !(b.is_ascii_alphanumeric() || *b == b'_'));
        if boundary {
            break p;
        }
        from = after;
    };
    let (open, close) = next_brace_block(model.masked.as_bytes(), pos)?;
    let body = &model.masked[open + 1..close];
    let toks = tokenize(body);
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct { ch, .. } => match ch {
                b'{' | b'(' | b'[' | b'<' => depth += 1,
                b'}' | b')' | b']' | b'>' => depth -= 1,
                _ => {}
            },
            // At enum-body depth 0 the only uppercase-initial identifiers
            // are variant names (attribute contents sit inside `[...]`).
            Tok::Ident { text, .. }
                if depth == 0 && text.chars().next().is_some_and(|c| c.is_ascii_uppercase()) =>
            {
                variants.push(text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    Some(variants)
}

/// Extract the body of `fn <name>` from `src` (masked).
fn fn_body(src_masked: &str, name: &str) -> Option<(usize, String)> {
    let needle = format!("fn {name}");
    let mut from = 0usize;
    loop {
        let p = src_masked[from..].find(&needle)? + from;
        let after = p + needle.len();
        let b = src_masked.as_bytes().get(after);
        if b.is_none_or(|b| !(b.is_ascii_alphanumeric() || *b == b'_')) {
            let (open, close) = next_brace_block(src_masked.as_bytes(), after)?;
            return Some((open, src_masked[open..=close].to_string()));
        }
        from = after;
    }
}

// ---------------------------------------------------------------------------
// Check 2: config-knob coverage
// ---------------------------------------------------------------------------

/// `struct_fields` result: the struct body's byte span in the masked
/// source plus each field's name and line number.
pub type StructFields = (usize, usize, Vec<(String, usize)>);

/// Field names of `pub struct <name> { ... }` in `src`.
pub fn struct_fields(struct_name: &str, src: &str) -> Option<StructFields> {
    let model = SourceModel::parse(src);
    let needle = format!("struct {struct_name}");
    let pos = model.masked.find(&needle)?;
    let after = pos + needle.len();
    if model
        .masked
        .as_bytes()
        .get(after)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    {
        return None;
    }
    let (open, close) = next_brace_block(model.masked.as_bytes(), after)?;
    let body = &model.masked[open + 1..close];
    let toks = tokenize(body);
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i] {
            Tok::Punct { ch, .. } => match ch {
                b'{' | b'(' | b'[' | b'<' => depth += 1,
                b'}' | b')' | b']' | b'>' => depth -= 1,
                _ => {}
            },
            Tok::Ident { text, offset } if depth == 0 && text != "pub" => {
                // `name : Type ,` — take the ident, then skip to the
                // field-separating comma at depth 0.
                if matches!(toks.get(i + 1), Some(Tok::Punct { ch: b':', .. })) {
                    fields.push((text.clone(), model.line_of(open + 1 + offset)));
                    let mut d = 0i32;
                    i += 1;
                    while i < toks.len() {
                        if let Tok::Punct { ch, .. } = &toks[i] {
                            match ch {
                                b'{' | b'(' | b'[' | b'<' => d += 1,
                                b'}' | b')' | b']' | b'>' => d -= 1,
                                b',' if d == 0 => break,
                                _ => {}
                            }
                        }
                        i += 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some((model.line_of(open), model.line_of(close), fields))
}

/// Line spans (inclusive) of every `impl <type_name>` block in `src` —
/// used to exclude a builder's fluent setters from knob-coverage: a
/// `self.cfg.field = v` write inside `impl ConfigBuilder` stores operator
/// intent, it does not *honor* it, so it must not count as a read.
pub fn impl_block_spans(type_name: &str, src: &str) -> Vec<(usize, usize)> {
    let model = SourceModel::parse(src);
    let needle = format!("impl {type_name}");
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = model.masked[from..].find(&needle) {
        let pos = from + rel;
        let after = pos + needle.len();
        from = after;
        // Reject identifier continuations (`impl ConfigBuilderExt`).
        if model
            .masked
            .as_bytes()
            .get(after)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            continue;
        }
        if let Some((open, close)) = next_brace_block(model.masked.as_bytes(), after) {
            spans.push((model.line_of(open), model.line_of(close)));
        }
    }
    spans
}

/// Every `Config` field must be *read* somewhere: `.field` access in any
/// workspace source outside the struct definition itself. `sources` is
/// `(label, text)` for every file to search (including the defining file).
/// `builder_name` names a fluent-builder type in the defining file whose
/// `impl` blocks are excluded from counting as reads (see
/// [`impl_block_spans`]).
pub fn check_config_knobs(
    struct_name: &str,
    def_label: &str,
    def_src: &str,
    sources: &[(String, String)],
    builder_name: Option<&str>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let builder_spans: Vec<(usize, usize)> =
        builder_name.map_or_else(Vec::new, |b| impl_block_spans(b, def_src));
    let Some((def_start, def_end, fields)) = struct_fields(struct_name, def_src) else {
        out.push(Finding {
            check: Check::ConfigKnob,
            file: def_label.to_string(),
            line: 1,
            message: format!("could not locate `pub struct {struct_name}`"),
            allowed: None,
            chain: Vec::new(),
        });
        return out;
    };
    let def_model = SourceModel::parse(def_src);
    for (field, fline) in &fields {
        let mut used = false;
        'files: for (label, text) in sources {
            let model;
            let m: &SourceModel = if label == def_label {
                &def_model
            } else {
                model = SourceModel::parse(text);
                &model
            };
            let toks = tokenize(&m.masked);
            for (i, t) in toks.iter().enumerate() {
                if let Tok::Ident { text: id, offset } = t {
                    if id == field && i >= 1 && matches!(&toks[i - 1], Tok::Punct { ch: b'.', .. })
                    {
                        // Accesses inside the struct definition don't count
                        // (there are none, but keep the rule tight), and
                        // neither do the builder's own setters/validators.
                        if label == def_label {
                            let l = m.line_of(*offset);
                            if l >= def_start && l <= def_end {
                                continue;
                            }
                            if builder_spans.iter().any(|(s, e)| l >= *s && l <= *e) {
                                continue;
                            }
                        }
                        used = true;
                        break 'files;
                    }
                }
            }
        }
        if !used {
            out.push(apply_allow(
                &def_model,
                Finding {
                    check: Check::ConfigKnob,
                    file: def_label.to_string(),
                    line: *fline,
                    message: format!(
                        "`{struct_name}.{field}` is never read outside its definition: \
                         a dead knob silently ignores operator intent"
                    ),
                    allowed: None,
                    chain: Vec::new(),
                },
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 3: test-attribute hygiene
// ---------------------------------------------------------------------------

/// `#[ignore]` needs a reason; `crates/net` tests must not synchronize with
/// `sleep`. `in_net_tests` marks files whose test code is subject to the
/// sleep rule (any file under `crates/net`).
pub fn check_test_hygiene(label: &str, source: &str, in_net: bool) -> Vec<Finding> {
    let model = SourceModel::parse(source);
    let mut out = Vec::new();
    let toks = tokenize(&model.masked);
    for (i, t) in toks.iter().enumerate() {
        if let Tok::Ident { text, offset } = t {
            if text == "ignore"
                && i >= 2
                && matches!(&toks[i - 1], Tok::Punct { ch: b'[', .. })
                && matches!(&toks[i - 2], Tok::Punct { ch: b'#', .. })
                && matches!(toks.get(i + 1), Some(Tok::Punct { ch: b']', .. }))
            {
                let line = model.line_of(*offset);
                out.push(apply_allow(
                    &model,
                    Finding {
                        check: Check::TestHygiene,
                        file: label.to_string(),
                        line,
                        message: "#[ignore] without a reason: use #[ignore = \"why\"] so the skip is auditable".to_string(),
                        allowed: None,
                        chain: Vec::new(),
                    },
                ));
            }
            if in_net && text == "sleep" {
                let line = model.line_of(*offset);
                let is_test_file = label.contains("/tests/");
                if (is_test_file || model.line_in_test(line))
                    && matches!(toks.get(i + 1), Some(Tok::Punct { ch: b'(', .. }))
                {
                    out.push(apply_allow(
                        &model,
                        Finding {
                            check: Check::TestHygiene,
                            file: label.to_string(),
                            line,
                            message: "sleep-based synchronization in a net test: poll a condition or use a channel/timeout instead".to_string(),
                            allowed: None,
                            chain: Vec::new(),
                        },
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 4: observability coverage
// ---------------------------------------------------------------------------

/// One required instrumentation site: `(file label, file text if found,
/// needle that must appear in the raw text, what the site does)`.
pub type ObsSite<'a> = (&'a str, Option<&'a str>, &'a str, &'a str);

/// The message counters are driven by `Payload::kind()`, so coverage has
/// two halves:
///
/// 1. Every variant of `enum_name` must have its own arm in `fn kind` —
///    Rust's match exhaustiveness is satisfied by a `_ =>` wildcard, which
///    would silently collapse new protocol messages into one counter
///    bucket and hide them from the per-kind `msgs_sent`/`msgs_recv`
///    series and the recovery timeline.
/// 2. The counter call sites themselves (`sites`) must still exist: the
///    simulator send/step paths and the TCP host dispatch each increment
///    the counters, and deleting any one of them silently blinds every
///    drill assertion built on the metrics.
pub fn check_obs_coverage(
    enum_name: &str,
    enum_src: &str,
    kind_label: &str,
    kind_src: &str,
    sites: &[ObsSite<'_>],
) -> Vec<Finding> {
    let mut out = Vec::new();

    // Half 1: per-variant kind labels.
    let model = SourceModel::parse(kind_src);
    match enum_variants(enum_name, enum_src) {
        None => out.push(Finding {
            check: Check::ObsCoverage,
            file: kind_label.to_string(),
            line: 1,
            message: format!("could not locate `pub enum {enum_name}` to audit kind labels"),
            allowed: None,
            chain: Vec::new(),
        }),
        Some(variants) => match fn_body(&model.masked, "kind") {
            None => out.push(Finding {
                check: Check::ObsCoverage,
                file: kind_label.to_string(),
                line: 1,
                message: format!(
                    "`fn kind` not found: `{enum_name}` needs per-variant counter labels"
                ),
                allowed: None,
                chain: Vec::new(),
            }),
            Some((open, body)) => {
                let line = model.line_of(open);
                let toks = tokenize(&body);
                for v in &variants {
                    let mut present = false;
                    for (i, t) in toks.iter().enumerate() {
                        if let Tok::Ident { text, .. } = t {
                            if text == v
                                && i >= 3
                                && matches!(&toks[i - 1], Tok::Punct { ch: b':', .. })
                                && matches!(&toks[i - 2], Tok::Punct { ch: b':', .. })
                                && matches!(&toks[i - 3], Tok::Ident { text: e, .. } if e == enum_name)
                            {
                                present = true;
                                break;
                            }
                        }
                    }
                    if !present {
                        out.push(apply_allow(
                            &model,
                            Finding {
                                check: Check::ObsCoverage,
                                file: kind_label.to_string(),
                                line,
                                message: format!(
                                    "`{enum_name}::{v}` has no arm in `fn kind`: a wildcard label \
                                     collapses this message into one counter bucket, hiding it \
                                     from `msgs_sent`/`msgs_recv` and the recovery timeline"
                                ),
                                allowed: None,
                                chain: Vec::new(),
                            },
                        ));
                    }
                }
            }
        },
    }

    // Half 2: the counter call sites. Raw-text search on purpose — the
    // needles are string literals (`incr_kind("msgs_sent"`), which the
    // masked source erases.
    for (label, text, needle, role) in sites {
        match text {
            None => out.push(Finding {
                check: Check::ObsCoverage,
                file: (*label).to_string(),
                line: 1,
                message: format!("instrumentation site missing: file not found ({role})"),
                allowed: None,
                chain: Vec::new(),
            }),
            Some(text) if !text.contains(needle) => out.push(Finding {
                check: Check::ObsCoverage,
                file: (*label).to_string(),
                line: 1,
                message: format!(
                    "instrumentation site `{needle}...)` is gone: {role} no longer feeds the \
                     message counters, blinding every drill assertion built on the metrics"
                ),
                allowed: None,
                chain: Vec::new(),
            }),
            Some(_) => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Check 5: drill coverage
// ---------------------------------------------------------------------------

/// Counter-name prefixes whose series must be asserted by at least one
/// test: the recovery/durability metrics the kill drills gate on, plus the
/// pipelined-client window accounting (`inflight_*`/`window_*`) the
/// multiplexed drills gate on.
pub const DRILL_COUNTER_PREFIXES: [&str; 5] =
    ["restart_", "wal_", "recovery_", "inflight_", "window_"];

/// Is this label an integration-test file (everything in it is test code)?
fn is_test_file(label: &str) -> bool {
    label.contains("/tests/") || label.starts_with("tests/")
}

/// Extract `"restart_*"`/`"wal_*"`/`"recovery_*"` string literals from the
/// raw text, with the 1-based line of each first occurrence. Only literals
/// outside test regions count — a counter minted by a test is not a
/// production failure-path metric.
fn drill_counters(text: &str, model: &SourceModel) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    let bytes = text.as_bytes();
    for prefix in DRILL_COUNTER_PREFIXES {
        let mut from = 0usize;
        while let Some(rel) = text.get(from..).and_then(|t| t.find(prefix)) {
            let pos = from + rel;
            from = pos + prefix.len();
            // Must be a string literal: opening quote right before.
            if pos == 0 || bytes[pos - 1] != b'"' {
                continue;
            }
            let mut end = pos;
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase()
                    || bytes[end].is_ascii_digit()
                    || bytes[end] == b'_')
            {
                end += 1;
            }
            // …and close immediately after the [a-z0-9_]+ name.
            if end >= bytes.len() || bytes[end] != b'"' {
                continue;
            }
            let name = &text[pos..end];
            let line = model.line_of(pos);
            if model.line_in_test(line) {
                continue;
            }
            if !out.iter().any(|(n, _)| n == name) {
                out.push((name.to_string(), line));
            }
        }
    }
    out
}

/// Every `CoordEvent` variant and every `restart_*`/`wal_*`/`recovery_*`
/// counter minted by production code must appear in at least one test
/// (integration-test files or `#[cfg(test)]` regions) — a failure path
/// nobody asserts on is a failure path nobody will notice regressing.
pub fn check_drill_coverage(
    coord_label: &str,
    coord_src: &str,
    sources: &[(String, String)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let coord_model = SourceModel::parse(coord_src);

    // Assemble the test corpus: whole integration-test files plus the
    // `#[cfg(test)]`/`#[test]` regions of everything else.
    let mut corpus = String::new();
    for (label, text) in sources {
        if is_test_file(label) {
            corpus.push_str(text);
            corpus.push('\n');
        } else {
            let model = SourceModel::parse(text);
            for (i, line) in text.lines().enumerate() {
                if model.line_in_test(i + 1) {
                    corpus.push_str(line);
                    corpus.push('\n');
                }
            }
        }
    }

    // Half 1: every CoordEvent variant asserted somewhere.
    match enum_variants("CoordEvent", coord_src) {
        None => out.push(Finding {
            check: Check::DrillCoverage,
            file: coord_label.to_string(),
            line: 1,
            message: "could not locate `pub enum CoordEvent` to audit drill coverage".to_string(),
            allowed: None,
            chain: Vec::new(),
        }),
        Some(variants) => {
            for v in &variants {
                if !corpus.contains(&format!("CoordEvent::{v}")) {
                    out.push(apply_allow(
                        &coord_model,
                        Finding {
                            check: Check::DrillCoverage,
                            file: coord_label.to_string(),
                            line: 1,
                            message: format!(
                                "`CoordEvent::{v}` is asserted by no test: this failure path \
                                 can regress without any drill noticing"
                            ),
                            allowed: None,
                            chain: Vec::new(),
                        },
                    ));
                }
            }
        }
    }

    // Half 2: every production drill counter asserted somewhere.
    for (label, text) in sources {
        if is_test_file(label) {
            continue;
        }
        let model = SourceModel::parse(text);
        for (name, line) in drill_counters(text, &model) {
            if !corpus.contains(&name) {
                out.push(apply_allow(
                    &model,
                    Finding {
                        check: Check::DrillCoverage,
                        file: label.clone(),
                        line,
                        message: format!(
                            "counter `{name}` is asserted by no test: the metric can silently \
                             stop moving and every drill built on it stays green"
                        ),
                        allowed: None,
                        chain: Vec::new(),
                    },
                ));
            }
        }
    }
    out
}
