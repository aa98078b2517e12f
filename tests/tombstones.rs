//! Tombstones: names that must not come back. `.github/tombstones.txt`
//! lists each one with its reason, its searched paths and its
//! exceptions; this test runs every check with `grep -rnE`, so the regex
//! dialect is grep's own. The file's header describes its format.

use std::path::Path;
use std::process::Command;

const TOMBSTONES: &str = include_str!("../.github/tombstones.txt");

#[derive(Default)]
struct Check<'a> {
    pattern: &'a str,
    paths: Vec<&'a str>,
    exclude: Option<&'a str>,
    allow: Vec<&'a str>,
}

struct Entry<'a> {
    title: &'a str,
    reason: Vec<&'a str>,
    checks: Vec<Check<'a>>,
}

fn parse(text: &str) -> Vec<Entry<'_>> {
    let mut entries: Vec<Entry> = Vec::new();
    for line in text.lines() {
        if let Some(title) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            entries.push(Entry { title, reason: Vec::new(), checks: Vec::new() });
            continue;
        }
        // Comment lines before the first entry are the file's header.
        let Some(entry) = entries.last_mut() else { continue };
        if line.trim().is_empty() {
            continue;
        }
        if let Some(reason) = line.strip_prefix('#') {
            entry.reason.push(reason.trim());
            continue;
        }
        let (field, value) = line
            .split_once(": ")
            .unwrap_or_else(|| panic!("[{}]: malformed line {line:?}", entry.title));
        if field == "pattern" {
            entry.checks.push(Check { pattern: value, ..Check::default() });
            continue;
        }
        let check = entry
            .checks
            .last_mut()
            .unwrap_or_else(|| panic!("[{}]: `{field}` before any `pattern`", entry.title));
        match field {
            "paths" => check.paths = value.split_whitespace().collect(),
            "exclude" => check.exclude = Some(value),
            "allow" => check.allow = value.split_whitespace().collect(),
            _ => panic!("[{}]: unknown field {field:?}", entry.title),
        }
    }
    entries
}

/// Expands one `dir/*/rest` component the way a shell glob does: the
/// existing matches, sorted, hidden names skipped.
fn expand(root: &Path, path: &str) -> Vec<String> {
    let Some((dir, rest)) = path.split_once("/*/") else {
        return vec![path.to_owned()];
    };
    let mut found: Vec<String> = std::fs::read_dir(root.join(dir))
        .unwrap_or_else(|err| panic!("reading {dir}: {err}"))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let candidate = format!("{dir}/{name}/{rest}");
            (!name.starts_with('.') && root.join(&candidate).exists()).then_some(candidate)
        })
        .collect();
    found.sort();
    found
}

/// The offending lines of one check, or grep's own failure.
fn run(root: &Path, check: &Check) -> Vec<String> {
    let mut grep = Command::new("grep");
    grep.current_dir(root).arg("-rnE");
    if let Some(name) = check.exclude {
        grep.arg(format!("--exclude={name}"));
    }
    grep.arg("-e").arg(check.pattern);
    for path in &check.paths {
        grep.args(expand(root, path));
    }
    let out = grep.output().expect("grep runs");
    match out.status.code() {
        Some(0) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|hit| !check.allow.iter().any(|file| hit.split(':').next() == Some(file)))
            .map(str::to_owned)
            .collect(),
        Some(1) => Vec::new(),
        _ => {
            vec![format!("grep failed ({}): {}", out.status, String::from_utf8_lossy(&out.stderr))]
        }
    }
}

#[test]
fn no_tombstoned_name_comes_back() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = parse(TOMBSTONES);
    assert!(!entries.is_empty(), "the tombstone list is empty");
    let mut failures = String::new();
    for entry in &entries {
        assert!(!entry.checks.is_empty(), "[{}] has no check", entry.title);
        for check in &entry.checks {
            assert!(!check.paths.is_empty(), "[{}] `{}` has no paths", entry.title, check.pattern);
            let hits = run(root, check);
            if !hits.is_empty() {
                failures.push_str(&format!(
                    "[{}] `{}`\n  why: {}\n  {}\n",
                    entry.title,
                    check.pattern,
                    entry.reason.join(" "),
                    hits.join("\n  ")
                ));
            }
        }
    }
    assert!(failures.is_empty(), "tombstoned names came back:\n{failures}");
}
