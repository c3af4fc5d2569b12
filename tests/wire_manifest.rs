//! The protocol-compatibility guard: `wire_tags.toml` pins the tag byte of
//! every `Msg` variant, and this test holds `lhrs_core::wire::TAGS` (which
//! the codec table in `wire.rs` expands to) against it. Changing a shipped
//! tag, reusing a retired one, or adding a message without a pin would let
//! a peer on the previous build mis-decode a frame — so it fails here, in
//! the tier-1 `cargo test`.

use lhrs_core::wire::TAGS;

/// The parsed manifest: `[msg]` pins and the `[retired] msg` list.
struct Manifest {
    pins: Vec<(String, u8)>,
    retired: Vec<u8>,
}

/// Parse the manifest's tiny TOML subset; anything unexpected is a loud
/// error, never a silently dropped pin.
fn parse(text: &str) -> Result<Manifest, String> {
    let mut manifest = Manifest {
        pins: Vec::new(),
        retired: Vec::new(),
    };
    let mut section = "";
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let bad = |why: &str| format!("wire_tags.toml:{}: {why}: `{raw}`", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name;
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad("expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match (section, key) {
            ("msg", name) => {
                let tag = value.parse().map_err(|_| bad("tag is not a u8"))?;
                manifest.pins.push((name.to_string(), tag));
            }
            ("retired", "msg") => {
                let list = value
                    .strip_prefix('[')
                    .and_then(|v| v.strip_suffix(']'))
                    .ok_or_else(|| bad("expected a `[..]` list"))?;
                for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let tag = item.parse().map_err(|_| bad("retired tag is not a u8"))?;
                    manifest.retired.push(tag);
                }
            }
            _ => return Err(bad("unknown section or key")),
        }
    }
    Ok(manifest)
}

/// Everything wrong between a manifest and a tag table, one line each.
fn violations(manifest: &Manifest, tags: &[(&str, u8)]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, (name, tag)) in tags.iter().enumerate() {
        if let Some((other, _)) = tags[..i].iter().find(|(_, t)| t == tag) {
            out.push(format!(
                "tag collision: `{name}` and `{other}` are both {tag}"
            ));
        }
        if manifest.retired.contains(tag) {
            out.push(format!("`{name}` reuses retired tag {tag}"));
        }
        match manifest.pins.iter().find(|(n, _)| n == name) {
            None => out.push(format!("`{name} = {tag}` is not pinned")),
            Some((_, pin)) if pin != tag => {
                out.push(format!(
                    "`{name}` drifted: code says {tag}, manifest pins {pin}"
                ));
            }
            Some(_) => {}
        }
    }
    for (name, pin) in &manifest.pins {
        if !tags.iter().any(|(n, _)| n == name) {
            out.push(format!(
                "manifest pins `{name} = {pin}` but the code has no such tag \
                 (a deleted message moves its value to [retired])"
            ));
        }
    }
    out
}

#[test]
fn code_and_manifest_agree() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/wire_tags.toml");
    let text = std::fs::read_to_string(path).expect("wire_tags.toml beside the root Cargo.toml");
    let manifest = parse(&text).unwrap();
    assert_eq!(manifest.pins.len(), 43, "one pin per Msg variant");
    let found = violations(&manifest, TAGS);
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn every_kind_of_disagreement_is_caught() {
    let manifest = parse("[msg]\nPUT = 1\nGET = 2\nGONE = 7\n[retired]\nmsg = [9, 12]\n").unwrap();
    let tags = [("PUT", 2), ("GET", 2), ("OLD", 9), ("NEW", 3)];
    let found = violations(&manifest, &tags);
    for needle in [
        "`PUT` drifted: code says 2, manifest pins 1",
        "tag collision: `GET` and `PUT` are both 2",
        "`OLD` reuses retired tag 9",
        "`OLD = 9` is not pinned",
        "`NEW = 3` is not pinned",
        "manifest pins `GONE = 7`",
    ] {
        assert_eq!(
            found.iter().filter(|f| f.contains(needle)).count(),
            1,
            "{needle}: {found:#?}"
        );
    }
    assert_eq!(found.len(), 6, "{found:#?}");
}

#[test]
fn malformed_manifests_are_loud() {
    assert!(parse("[msg]\nPUT = banana").is_err());
    assert!(parse("[msg]\nPUT").is_err());
    assert!(parse("[mystery]\nx = 1").is_err());
    assert!(parse("[retired]\nmsg = 3").is_err());
}
