//! Facts about the source that no compiler lint states (DESIGN §8.2):
//! every `Config` field is read by the program outside its definition, and
//! set by some program outside `config.rs` and `cluster.conf` parsing (a
//! value only tests change is a constant); every `CoordEvent` variant, and every `restart_*`/`wal_*`/
//! `recovery_*`/`inflight_*`/`window_*` counter the program mints, is named
//! by some test; and the helper crates hold no `assert!`-family macro
//! outside tests (`clippy::disallowed_macros` would also flag
//! `debug_assert!`, which expands to `assert!`). Plain `str` search, no
//! parser; `seeded_gaps_are_caught` shows each check firing.

use std::path::Path;

const COUNTER_PREFIXES: [&str; 5] = ["restart_", "wal_", "recovery_", "inflight_", "window_"];
const HELPER_CRATES: [&str; 4] = ["crates/gf/", "crates/rs/", "crates/lh/", "crates/obs/"];

/// One source file: its path from the workspace root, its program text and
/// its test text.
struct Source {
    label: String,
    program: String,
    tests: String,
}

impl Source {
    /// Split `text` into program and test lines, comments dropped. An
    /// integration-test file is all test; elsewhere a `#[cfg(test)]` item
    /// runs from the attribute to the closing brace at its indentation.
    fn new(label: &str, text: &str) -> Source {
        let whole_file = label.starts_with("tests/") || label.contains("/tests/");
        let mut parts = [String::new(), String::new()];
        let mut closing: Option<String> = None;
        for line in text.lines() {
            let body = line.trim_start();
            if body.starts_with("//") {
                continue;
            }
            if closing.is_none() && body == "#[cfg(test)]" {
                closing = Some(format!("{}}}", &line[..line.len() - body.len()]));
            }
            let part = &mut parts[usize::from(whole_file || closing.is_some())];
            part.push_str(line);
            part.push('\n');
            if closing.as_deref() == Some(line) {
                closing = None;
            }
        }
        let [program, tests] = parts;
        let label = label.into();
        Source {
            label,
            program,
            tests,
        }
    }
}

/// The top-level block opened by `head`, through its closing `}` line.
fn block<'a>(text: &'a str, head: &str) -> &'a str {
    let start = text.find(head).unwrap_or(text.len());
    let len = text[start..].find("\n}\n").map_or(0, |end| end + 3);
    &text[start..start + len]
}

fn not_ident(c: char) -> bool {
    !c.is_alphanumeric() && c != '_'
}

/// The identifiers that open, after `lead`, the lines indented once inside
/// `block`: field names after `pub `, variant names after nothing.
fn members<'a>(block: &'a str, lead: &str) -> Vec<&'a str> {
    let lines = block
        .lines()
        .filter_map(|l| l.strip_prefix("    ")?.strip_prefix(lead));
    let idents = lines.filter_map(|rest| rest.split(not_ident).next());
    idents.filter(|name| !name.is_empty()).collect()
}

/// Whether `text` reads `.field` (not `.field_longer`).
fn reads(text: &str, field: &str) -> bool {
    let needle = format!(".{field}");
    let mut after = text
        .match_indices(&needle)
        .map(|(at, _)| &text[at + needle.len()..]);
    after.any(|rest| rest.chars().next().is_none_or(not_ident))
}

/// The `"name"` string literals in `text` that name a drill counter.
fn counters(text: &str) -> Vec<&str> {
    let literal = |(at, _): (usize, &str)| {
        let rest = &text[at + 1..];
        let end = rest
            .find(not_ident)
            .filter(|&end| rest[end..].starts_with('"'))?;
        Some(&rest[..end])
    };
    let names = text.match_indices('"').filter_map(literal);
    let mut names: Vec<&str> = names
        .filter(|n| COUNTER_PREFIXES.iter().any(|p| n.starts_with(p)))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// The bodies of the `Config { … }` literals in `text`.
fn config_literals(text: &str) -> Vec<&str> {
    let heads = text
        .match_indices("Config {")
        .filter(|(at, _)| text[..*at].chars().next_back().is_none_or(not_ident));
    let body = |(at, head): (usize, &str)| {
        let body = &text[at + head.len()..];
        let mut depth = 1usize;
        let end = body.find(|c| {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            depth == 0
        });
        &body[..end.unwrap_or(body.len())]
    };
    heads.map(body).collect()
}

/// Whether `text` sets `field`: `field:` inside a `Config { … }` literal,
/// or `.field =`.
fn assigns(text: &str, field: &str) -> bool {
    let literal = format!("{field}:");
    let in_literal = |body: &&str| {
        let mut hits = body.match_indices(&literal).map(|(at, _)| at);
        hits.any(|at| {
            body[..at].chars().next_back().is_none_or(not_ident)
                && !body[at + literal.len()..].starts_with(':')
        })
    };
    let store = format!(".{field} =");
    let mut stores = text.match_indices(&store).map(|(at, _)| at);
    config_literals(text).iter().any(in_literal)
        || stores.any(|at| !text[at + store.len()..].starts_with('='))
}

/// The program text that may set a `Config` field: `crates/*/src` and
/// `benchmark/src`, less `config.rs` and `cluster.rs`'s `apply_config`.
fn setters(tree: &[Source]) -> String {
    let sets = |s: &&Source| {
        let label = s.label.as_str();
        let crate_src = label.starts_with("crates/") && label.contains("/src/");
        (crate_src || label.starts_with("benchmark/src/")) && !label.ends_with("core/src/config.rs")
    };
    let strip = |s: &Source| match s.program.find("fn apply_config(") {
        Some(_) => s.program.replace(block(&s.program, "fn apply_config("), ""),
        None => s.program.clone(),
    };
    tree.iter().filter(sets).map(strip).collect()
}

/// Every gap in `tree`, one message each. `benchmark/` only counts as a
/// place that sets `Config` fields.
fn gaps(tree: &[Source]) -> Vec<String> {
    let workspace = || tree.iter().filter(|s| !s.label.starts_with("benchmark/"));
    let program: String = workspace().map(|s| s.program.as_str()).collect();
    let corpus: String = workspace().map(|s| s.tests.as_str()).collect();
    let mut out = Vec::new();

    let config = block(&program, "pub struct Config {");
    let readers = program.replace(config, "");
    let fields = members(config, "pub ");
    let unread = fields.iter().filter(|f| !reads(&readers, f));
    out.extend(unread.map(|f| format!("Config.{f} is never read")));
    let setters = setters(tree).replace(config, "");
    let unset = fields.iter().filter(|f| !assigns(&setters, f));
    out.extend(unset.map(|f| format!("Config.{f} is set by no program")));
    let variants = members(block(&program, "pub enum CoordEvent {"), "");
    let unnamed = variants
        .iter()
        .filter(|v| !corpus.contains(&format!("CoordEvent::{v}")));
    out.extend(unnamed.map(|v| format!("CoordEvent::{v} is named by no test")));
    if fields.is_empty() || variants.is_empty() {
        out.push("Config or CoordEvent not found: the checks above read nothing".into());
    }
    let unasserted = counters(&program)
        .into_iter()
        .filter(|n| !corpus.contains(n));
    out.extend(unasserted.map(|n| format!("counter {n} is asserted by no test")));
    for s in workspace() {
        let code = s.program.replace("debug_assert", "");
        let asserts = ["assert!(", "assert_eq!(", "assert_ne!("].map(|m| code.contains(m));
        if asserts.contains(&true) && HELPER_CRATES.iter().any(|c| s.label.starts_with(c)) {
            out.push(format!("{}: assert outside tests", s.label));
        }
    }
    out
}

/// Every `.rs` file under `dir`, labelled by its path from `root`.
fn walk(root: &Path, dir: &Path, out: &mut Vec<Source>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            walk(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let label = path.strip_prefix(root).unwrap().to_string_lossy();
            let text = std::fs::read_to_string(&path).unwrap();
            out.push(Source::new(&label, &text));
        }
    }
}

#[test]
fn the_workspace_has_no_gaps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        walk(root, &root.join(dir), &mut tree);
    }
    let gaps = gaps(&tree);
    assert!(gaps.is_empty(), "{gaps:#?}");
}

#[test]
fn seeded_gaps_are_caught() {
    let core = "pub struct Config {\n    /// Read.\n    pub live: u32,\n    pub dead: u32,\n    pub knob: u32,\n}\n\
                fn f(c: &Config) -> u64 { c.live + c.deadline + c.knob }\n\
                fn h() -> Config { Config { dead: 0, ..d() } }\n\
                pub enum CoordEvent {\n    Named {\n        bucket: u64,\n    },\n    Unnamed,\n}\n\
                fn g(o: &Obs) { o.incr(\"wal_named\"); o.incr(\"wal_unnamed\"); }\n\
                #[cfg(test)]\nmod tests {\n    fn t() { CoordEvent::Named; o.incr(\"recovery_x\"); c.knob = 2; }\n}\n";
    let kernel = "//! assert!(doc);\nfn k(x: u8) { debug_assert!(x < 16); assert!(x < 16); }\n\
                  #[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(1, 1); }\n}\n";
    let tree = [
        Source::new("crates/core/src/lib.rs", core),
        Source::new(
            "crates/core/src/config.rs",
            "fn d() -> Config { Config { live: 0, dead: 0, knob: 0 } }\n",
        ),
        Source::new(
            "crates/net/src/cluster.rs",
            "fn apply_config(cfg: &mut Config) {\n    cfg.knob = 1;\n}\n",
        ),
        Source::new(
            "benchmark/src/workload.rs",
            "fn w(o: &Obs) -> Config { o.incr(\"wal_bench\"); Config { live: 1, ..d() } }\n",
        ),
        Source::new("crates/core/tests/t.rs", "m.counter(\"wal_named\");\n"),
        Source::new("crates/gf/src/kernel.rs", kernel),
    ];
    assert_eq!(
        gaps(&tree),
        [
            "Config.dead is never read",
            "Config.knob is set by no program",
            "CoordEvent::Unnamed is named by no test",
            "counter wal_unnamed is asserted by no test",
            "crates/gf/src/kernel.rs: assert outside tests",
        ]
    );
    assert!(gaps(&[])[0].starts_with("Config or CoordEvent not found"));
}
