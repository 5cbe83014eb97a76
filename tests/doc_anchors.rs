//! Every ``[`name`](path#Lnnn)`` code link in the top-level documents and
//! `docs/*.md` must land on the line that declares `name`, so line anchors
//! cannot drift silently when the code above them moves.

use std::fs;
use std::path::{Path, PathBuf};

/// A ``[`name`](path#Lnnn)`` link found in a document.
#[derive(Debug)]
struct Anchor {
    doc: PathBuf,
    name: String,
    target: PathBuf,
    line: usize,
}

/// The anchored code links in `text`, the contents of `doc`, with targets
/// resolved against `doc`'s directory.
fn anchors_in(doc: &Path, text: &str) -> Vec<Anchor> {
    let dir = doc.parent().expect("documents live in a directory");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find("[`") {
        rest = &rest[open + 2..];
        let Some(close) = rest.find("`](") else { break };
        let name = &rest[..close];
        let link_start = close + 3;
        let Some(link_len) = rest[link_start..].find(')') else {
            break;
        };
        let link = &rest[link_start..link_start + link_len];
        if let Some((path, line)) = link.split_once("#L") {
            if !name.contains('`') && !name.contains('\n') {
                out.push(Anchor {
                    doc: doc.to_path_buf(),
                    name: name.to_string(),
                    target: dir.join(path),
                    line: line
                        .parse()
                        .unwrap_or_else(|_| panic!("{}: bad line in link {link}", doc.display())),
                });
            }
        }
        rest = &rest[close..];
    }
    out
}

/// Whether `line` declares `ident` as a Rust item.
fn declares(line: &str, ident: &str) -> bool {
    const KEYWORDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let tokens: Vec<&str> = line
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect();
    tokens
        .windows(2)
        .any(|w| KEYWORDS.contains(&w[0]) && w[1] == ident)
}

fn documents(root: &Path) -> Vec<PathBuf> {
    let mut docs = vec![root.join("README.md"), root.join("DESIGN.md")];
    let mut extra: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    extra.sort();
    docs.extend(extra);
    docs
}

#[test]
fn code_anchors_land_on_their_declarations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in documents(root) {
        let text = fs::read_to_string(&doc).expect("readable document");
        for a in anchors_in(&doc, &text) {
            let source = fs::read_to_string(&a.target).unwrap_or_else(|e| {
                panic!(
                    "{}: `{}` links to {}: {e}",
                    a.doc.display(),
                    a.name,
                    a.target.display()
                )
            });
            let ident = a.name.rsplit("::").next().unwrap_or(&a.name);
            let line = source.lines().nth(a.line.saturating_sub(1)).unwrap_or("");
            if !declares(line, ident) {
                stale.push(format!(
                    "{}: `{}` -> {}#L{} reads {:?}",
                    a.doc.strip_prefix(root).unwrap_or(&a.doc).display(),
                    a.name,
                    a.target.strip_prefix(root).unwrap_or(&a.target).display(),
                    a.line,
                    line.trim()
                ));
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 30,
        "only {checked} anchors found: is the parser broken?"
    );
    assert!(
        stale.is_empty(),
        "stale code anchors:\n{}",
        stale.join("\n")
    );
}

#[test]
fn anchor_parser_and_declaration_check() {
    let doc = Path::new("/repo/docs/X.md");
    let text = "see [`plan`](../src/p.rs#L12) and [`Foo::bar`](../src/f.rs#L3), \
                not [`baz`](../src/b.rs) or [text](../src/t.rs#L9)";
    let found = anchors_in(doc, text);
    let got: Vec<(&str, usize)> = found.iter().map(|a| (a.name.as_str(), a.line)).collect();
    assert_eq!(got, [("plan", 12), ("Foo::bar", 3)]);
    assert_eq!(found[0].target, Path::new("/repo/docs/../src/p.rs"));

    assert!(declares("pub fn plan(", "plan"));
    assert!(declares("pub(crate) struct EvalCache {", "EvalCache"));
    assert!(declares(
        "    fn predict_time(&self) -> f64;",
        "predict_time"
    ));
    assert!(!declares("/// assert!(plan.n_workers >= 1);", "plan"));
    assert!(!declares("pub fn plan_with_model(", "plan"));
}
