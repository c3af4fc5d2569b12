//! Workspace call graph, reachability from the actor entry points, and the
//! two graph-driven checks (transitive panic-reachability and unchecked
//! integer arithmetic).
//!
//! Name resolution is deliberately conservative — it over-approximates the
//! real call graph:
//!
//! - `Q::name(...)` resolves to fns named `name` whose enclosing impl is
//!   `Q`; if none match (`Q` is a generic parameter like `F::mul`, or a
//!   module path), it falls back to *every* fn named `name`;
//! - `.name(...)` resolves to every fn named `name` that takes `self`
//!   (a `.get(...)` on a `BTreeMap` therefore also points at
//!   `Matrix::get` — a spurious edge, never a missed one);
//! - a bare `name(...)` resolves to every fn named `name`.
//!
//! A spurious edge can at worst demand one extra justification in a helper
//! crate; a missed edge would let a panic hide on a hot path. For an
//! availability lint the asymmetry decides.

use std::collections::{BTreeMap, VecDeque};

use crate::items::{FnItem, WorkspaceIndex};
use crate::source::Tok;
use crate::{Check, Finding};

/// Reachability result over [`WorkspaceIndex::fns`].
pub struct Reachability {
    /// `reachable[f]` — is fn `f` reachable from any root?
    pub reachable: Vec<bool>,
    /// For non-root reachable fns: `(caller fn, call line)` of the BFS
    /// discovery edge — walking parents reaches a root.
    pub parent: Vec<Option<(usize, usize)>>,
}

/// Adjacency: for every fn, the list of `(callee fn, call line)` edges.
pub type CallGraph = Vec<Vec<(usize, usize)>>;

/// Resolve every call site into fn→fn edges.
pub fn build_graph(ws: &WorkspaceIndex) -> CallGraph {
    // Deterministic name→fns index.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut adj: CallGraph = vec![Vec::new(); ws.fns.len()];
    for call in &ws.calls {
        let Some(caller) = call.caller else {
            continue; // const initializer / static — no runtime edge
        };
        if ws.fns[caller].is_test {
            continue; // test-only callers never feed hot-path reachability
        }
        let Some(candidates) = by_name.get(call.callee.as_str()) else {
            continue; // std / external
        };
        let resolved: Vec<usize> = if let Some(q) = &call.qualifier {
            // `Self::helper(...)` refers to the caller's own impl type.
            let q: &str = if q == "Self" {
                ws.fns[caller].impl_type.as_deref().unwrap_or(q)
            } else {
                q
            };
            let exact: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].impl_type.as_deref() == Some(q))
                .collect();
            if exact.is_empty() {
                candidates.clone() // generic param or module path qualifier
            } else {
                exact
            }
        } else if call.is_method {
            candidates
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].has_self)
                .collect()
        } else {
            candidates.clone()
        };
        for callee in resolved {
            if !adj[caller].iter().any(|(c, _)| *c == callee) {
                adj[caller].push((callee, call.line));
            }
        }
    }
    adj
}

/// BFS from every fn satisfying `is_root`, recording discovery parents.
pub fn reach(
    ws: &WorkspaceIndex,
    adj: &CallGraph,
    is_root: impl Fn(&FnItem) -> bool,
) -> Reachability {
    let n = ws.fns.len();
    let mut reachable = vec![false; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if !f.is_test && is_root(f) {
            reachable[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &(callee, line) in &adj[f] {
            if !reachable[callee] && !ws.fns[callee].is_test {
                reachable[callee] = true;
                parent[callee] = Some((f, line));
                queue.push_back(callee);
            }
        }
    }
    Reachability { reachable, parent }
}

impl Reachability {
    /// Render the call chain `root → … → fn` for a reachable fn.
    pub fn chain(&self, ws: &WorkspaceIndex, mut f: usize) -> Vec<String> {
        let mut rev = vec![ws.fn_display(f)];
        let mut hops = 0usize;
        while let Some((p, line)) = self.parent[f] {
            rev.push(format!("{} (call at line {line})", ws.fn_display(p)));
            f = p;
            hops += 1;
            if hops > ws.fns.len() {
                break; // cycle guard; parents form a tree, belt-and-braces
            }
        }
        rev.reverse();
        rev
    }
}

/// Files whose fns are reachability roots: the actor hot paths (every
/// `Msg` handler, `on_timer` poll, and boot/recovery path lives in one of
/// these modules).
pub const ROOT_FILES: [&str; 12] = [
    "crates/core/src/coordinator.rs",
    "crates/core/src/data_bucket.rs",
    "crates/core/src/parity_bucket.rs",
    "crates/core/src/client.rs",
    "crates/core/src/file.rs",
    "crates/core/src/storage.rs",
    "crates/rs/src/code.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/transport.rs",
    "crates/net/src/host.rs",
    "crates/net/src/durable.rs",
    "crates/wal/src/lib.rs",
];

/// Helper scope of the transitive checks: files whose panics are
/// invisible to the per-file audit yet reachable from the hot paths — the
/// helper crates, and the three `core` modules every frame or exchange
/// passes through (`convert`, the `wire` codec's hand-written reader and
/// primitive impls, and the `registry` allocation table the coordinator
/// edits). Root files are excluded — the per-file panic-freedom check
/// already covers 100% of their lines, which subsumes transitive coverage.
pub fn in_helper_scope(label: &str) -> bool {
    (label.starts_with("crates/gf/src/")
        || label.starts_with("crates/rs/src/")
        || label.starts_with("crates/lh/src/")
        || label.starts_with("crates/obs/src/")
        || label == "crates/core/src/convert.rs"
        || label == "crates/core/src/wire.rs"
        || label == "crates/core/src/registry.rs")
        && !ROOT_FILES.contains(&label)
}

/// Shared output shape for the two body-scanning graph checks.
struct BodyScanCtx<'a> {
    ws: &'a WorkspaceIndex,
    reach: &'a Reachability,
}

/// Run both graph checks over every reachable helper-scope fn.
pub fn run_graph_checks(ws: &WorkspaceIndex, reach_info: &Reachability) -> Vec<Finding> {
    let ctx = BodyScanCtx {
        ws,
        reach: reach_info,
    };
    let mut out = Vec::new();
    for (idx, f) in ws.fns.iter().enumerate() {
        if !reach_info.reachable[idx] || f.is_test {
            continue;
        }
        let label = &ws.files[f.file].label;
        if !in_helper_scope(label) {
            continue;
        }
        scan_panics(&ctx, idx, &mut out);
        scan_arithmetic(&ctx, idx, &mut out);
    }
    out
}

/// Body token range of fn `idx` (tokens whose offsets sit inside the body,
/// excluding tokens of *nested* fns — those are scanned as their own item).
fn body_tokens(ws: &WorkspaceIndex, idx: usize) -> Vec<(usize, &Tok)> {
    let f = &ws.fns[idx];
    let file = &ws.files[f.file];
    let nested: Vec<(usize, usize)> = ws
        .fns
        .iter()
        .filter(|g| g.file == f.file && g.body.0 > f.body.0 && g.body.1 < f.body.1)
        .map(|g| g.body)
        .collect();
    file.toks
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            let o = t.offset();
            o > f.body.0 && o < f.body.1 && !nested.iter().any(|(a, b)| o > *a && o < *b)
        })
        .collect()
}

/// The panic patterns of the per-file check, plus the `assert!` family —
/// helper crates must not even assert on a hot path: a failed assertion in
/// `gf`/`rs`/`lh` is an actor abort the coordinator will misread as a
/// killed bucket.
fn scan_panics(ctx: &BodyScanCtx<'_>, idx: usize, out: &mut Vec<Finding>) {
    const PANIC_MACROS: [&str; 7] = [
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    const NARROW_CASTS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];
    let ws = ctx.ws;
    let f = &ws.fns[idx];
    let file = &ws.files[f.file];
    let toks = &file.toks;
    let body = body_tokens(ws, idx);
    let mut hits: Vec<(usize, String)> = Vec::new();
    for &(i, t) in &body {
        match t {
            Tok::Ident { text, offset } if text == "unwrap" || text == "expect" => {
                let prev_dot = matches!(
                    i.checked_sub(1).map(|p| &toks[p]),
                    Some(Tok::Punct { ch: b'.', .. })
                );
                let next_paren = matches!(toks.get(i + 1), Some(Tok::Punct { ch: b'(', .. }));
                if prev_dot && next_paren {
                    hits.push((*offset, format!(".{text}() panics on the error path")));
                }
            }
            Tok::Ident { text, offset } if PANIC_MACROS.contains(&text.as_str()) => {
                if matches!(toks.get(i + 1), Some(Tok::Punct { ch: b'!', .. })) {
                    hits.push((*offset, format!("{text}! aborts the calling actor")));
                }
            }
            Tok::Ident { text, offset } if text == "as" => {
                if let Some(Tok::Ident { text: ty, .. }) = toks.get(i + 1) {
                    if NARROW_CASTS.contains(&ty.as_str()) {
                        hits.push((*offset, format!("`as {ty}` silently truncates")));
                    }
                }
            }
            Tok::Punct { ch: b'[', offset } => {
                let is_index = match i.checked_sub(1).map(|p| &toks[p]) {
                    Some(Tok::Ident { text, .. }) => !matches!(
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
                            | "let"
                    ),
                    Some(Tok::Punct { ch: b')', .. }) | Some(Tok::Punct { ch: b']', .. }) => true,
                    _ => false,
                };
                if is_index {
                    hits.push((*offset, "direct indexing panics out of bounds".to_string()));
                }
            }
            _ => {}
        }
    }
    emit(ctx, idx, Check::TransitivePanic, hits, out);
}

/// Can the previous token end an expression (making a following `+`/`-`/
/// `*`/`<<` a binary operator rather than a sign, deref, or arrow)?
fn ends_expr(t: Option<&&Tok>) -> bool {
    match t {
        Some(Tok::Ident { text, .. }) => !matches!(
            text.as_str(),
            "return" | "in" | "if" | "else" | "match" | "break" | "as" | "mut" | "where"
        ),
        Some(Tok::Punct { ch: b')', .. }) | Some(Tok::Punct { ch: b']', .. }) => true,
        _ => false,
    }
}

fn is_numeric(t: Option<&&Tok>) -> bool {
    matches!(t, Some(Tok::Ident { text, .. }) if text.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// Flag raw binary `+`, `-`, `*`, `<<` (and their compound assignments) on
/// reachable helper-scope code: overflow panics in debug builds and wraps
/// silently in release — both wrong on a hot path. `checked_*`,
/// `saturating_*`, or `wrapping_*` spell the intended semantics out.
fn scan_arithmetic(ctx: &BodyScanCtx<'_>, idx: usize, out: &mut Vec<Finding>) {
    let ws = ctx.ws;
    let f = &ws.fns[idx];
    let file = &ws.files[f.file];
    let toks = &file.toks;
    let body = body_tokens(ws, idx);
    let mut hits: Vec<(usize, String)> = Vec::new();
    let mut skip_next = false;
    for &(i, t) in &body {
        if skip_next {
            skip_next = false;
            continue;
        }
        let Tok::Punct { ch, offset } = t else {
            continue;
        };
        let op: &str = match ch {
            b'+' => "+",
            b'-' => "-",
            b'*' => "*",
            b'<' => {
                // `<<` is two adjacent `<` puncts.
                match toks.get(i + 1) {
                    Some(Tok::Punct {
                        ch: b'<',
                        offset: o2,
                    }) if *o2 == offset + 1 => {
                        skip_next = true;
                        "<<"
                    }
                    _ => continue,
                }
            }
            _ => continue,
        };
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        if !ends_expr(prev.as_ref()) {
            continue; // unary minus, deref, generic bracket, …
        }
        // `->` return-type arrow.
        if op == "-" && matches!(toks.get(i + 1), Some(Tok::Punct { ch: b'>', .. })) {
            continue;
        }
        // Operand after the operator (and after a compound `=`).
        let mut j = if skip_next { i + 2 } else { i + 1 };
        let compound = matches!(toks.get(j), Some(Tok::Punct { ch: b'=', .. }));
        if compound {
            j += 1;
        }
        let next = toks.get(j);
        let next_ok = matches!(
            next,
            Some(Tok::Ident { .. })
                | Some(Tok::Punct { ch: b'(', .. })
                | Some(Tok::Punct { ch: b'&', .. })
                | Some(Tok::Punct { ch: b'*', .. })
                | Some(Tok::Punct { ch: b'-', .. })
                | Some(Tok::Punct { ch: b'!', .. })
        );
        if !next_ok {
            continue; // `x..`, trailing operators in ranges, etc.
        }
        // Literal-only expressions cannot overflow at runtime.
        if is_numeric(prev.as_ref()) && is_numeric(next.as_ref()) {
            continue;
        }
        let shown = if compound {
            format!("{op}=")
        } else {
            op.to_string()
        };
        hits.push((
            *offset,
            format!(
                "unchecked `{shown}` on a hot path; spell the overflow semantics out with \
                 checked_/saturating_/wrapping_"
            ),
        ));
    }
    emit(ctx, idx, Check::UncheckedArith, hits, out);
}

/// Turn raw `(offset, message)` hits into findings carrying the call chain,
/// honoring the per-line escape hatch.
fn emit(
    ctx: &BodyScanCtx<'_>,
    fn_idx: usize,
    check: Check,
    hits: Vec<(usize, String)>,
    out: &mut Vec<Finding>,
) {
    let ws = ctx.ws;
    let f = &ws.fns[fn_idx];
    let file = &ws.files[f.file];
    let chain = ctx.reach.chain(ws, fn_idx);
    for (offset, message) in hits {
        let line = file.model.line_of(offset);
        if file.model.line_in_test(line) {
            continue;
        }
        let mut finding = Finding {
            check,
            file: file.label.clone(),
            line,
            message: format!("{message} (reachable from the actor hot paths)"),
            allowed: None,
            chain: chain.clone(),
        };
        if let Some(a) = file.model.allow_for(check.name(), line) {
            match &a.reason {
                Some(r) => finding.allowed = Some(r.clone()),
                None => {
                    finding.message = format!(
                        "{} (escape hatch present but reason=\"...\" is missing or empty; \
                         a justification string is required)",
                        finding.message
                    );
                }
            }
        }
        out.push(finding);
    }
}
