//! sp-analyze: the workspace invariant linter.
//!
//! A std-only static-analysis pass (hand-rolled lexer + token-shape
//! rules, no syn, no registry access) that fails CI with `file:line`
//! diagnostics when workspace code drifts from the invariants the
//! performance work depends on:
//!
//! * **alloc** — declared hot functions (see `hot_functions.txt`)
//!   never allocate.
//! * **panic** / **index** — library code returns errors instead of
//!   panicking; hot paths don't use may-panic indexing silently.
//! * **concurrency** — every scoped-thread/atomic-cursor scan goes
//!   through `sp_sync::WorkQueue`; every thread count through
//!   `sp_sync::configured_threads_for` or `sp_sync::default_threads`.
//! * **env** — every `SP_*` knob is registered in
//!   `sp_sync::knobs::ENV_KNOBS` and read through the registry, and
//!   the README's knob table is exactly the one the registry
//!   generates.
//!
//! Intentional exceptions carry
//! `// sp-analyze: allow(<rule>, <reason>)` on the offending line,
//! the line above, or the function's `fn` line (whole-body waiver).
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O errors.

mod lexer;
mod rules;

use rules::{Diagnostic, Manifest, SourceFile};
use std::path::{Path, PathBuf};

/// Relative path of the hot-function manifest inside the workspace.
const MANIFEST_PATH: &str = "ci/sp_analyze/hot_functions.txt";

/// Relative path of the env-knob registry source (exempt from the
/// raw-read ban: it *is* the blessed read).
const REGISTRY_PATH: &str = "crates/sync/src/knobs.rs";

/// The README line before and after the generated knob table.
const KNOB_MARKER: &str = "<!-- sp-analyze:knobs -->";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut root = PathBuf::from(".");
    let mut self_test = false;
    let mut fix_manifest = false;
    let mut knob_table = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--self-test" => self_test = true,
            "--fix-manifest" => fix_manifest = true,
            "--knob-table" => knob_table = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if knob_table {
        print!("{}", sp_sync::knobs::markdown_table());
        return 0;
    }
    if self_test {
        return run_self_test();
    }

    let files = match collect_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sp-analyze: {e}");
            return 2;
        }
    };

    if fix_manifest {
        return emit_manifest_skeleton(&files);
    }

    let manifest_text = match std::fs::read_to_string(root.join(MANIFEST_PATH)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sp-analyze: cannot read {MANIFEST_PATH}: {e}");
            return 2;
        }
    };
    let manifest = match Manifest::parse(&manifest_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sp-analyze: {MANIFEST_PATH}: {e}");
            return 2;
        }
    };
    if manifest.is_empty() {
        eprintln!("sp-analyze: {MANIFEST_PATH} declares no hot functions");
        return 2;
    }

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let mut diags = analyze(&files, &manifest, &readme);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!(
            "sp-analyze: {} files clean ({} hot functions declared)",
            files.len(),
            manifest.len()
        );
        0
    } else {
        println!("sp-analyze: {} violation(s)", diags.len());
        1
    }
}

fn usage(err: &str) -> i32 {
    eprintln!("sp-analyze: {err}");
    eprintln!(
        "usage: sp-analyze [--root <workspace>] [--self-test] [--fix-manifest] [--knob-table]"
    );
    2
}

/// Walks the workspace for `.rs` sources, skipping vendored code and
/// build output. Paths come back workspace-relative with `/`
/// separators, sorted for deterministic output.
fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "vendor" | "target" | ".git" | ".github") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                files.push((rel, src));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Library code: the crates' `src/` trees plus the façade crate's
/// `src/` (binaries excluded — a CLI may exit via expect; a library
/// must hand the error back) — where the panic and concurrency rules
/// apply.
fn is_lib(rel: &str) -> bool {
    (rel.starts_with("crates/") && rel.contains("/src/") && !rel.contains("/src/bin/"))
        || (rel.starts_with("src/") && !rel.starts_with("src/bin/"))
}

fn analyze(files: &[(String, String)], manifest: &Manifest, readme: &str) -> Vec<Diagnostic> {
    let registered = |name: &str| sp_sync::knobs::knob(name).is_some();
    let mut diags = Vec::new();
    for (rel, src) in files {
        let sf = SourceFile::new(rel, src);
        sf.check_allow_reasons(&mut diags);
        sf.check_env(&registered, rel == REGISTRY_PATH, &mut diags);
        if is_lib(rel) {
            sf.check_hot_paths(manifest, &mut diags);
            sf.check_panic(&mut diags);
            if !rel.starts_with("crates/sync/") {
                sf.check_concurrency(&mut diags);
            }
        }
    }
    diags.extend(check_knob_table(readme));
    diags
}

/// The README's knob table (the lines between the two
/// [`KNOB_MARKER`]s) must be exactly `markdown_table()`: a stale row,
/// a missing one or an edited default or summary is reported at the
/// first README line that differs.
fn check_knob_table(readme: &str) -> Option<Diagnostic> {
    let table = sp_sync::knobs::markdown_table();
    let want: Vec<&str> = table.lines().collect();
    let mut parts = readme.splitn(3, KNOB_MARKER);
    let head = parts.next().unwrap_or_default();
    let (line, message) = match (parts.next(), parts.next()) {
        (Some(block), Some(_)) => {
            let have: Vec<&str> = block.trim_start_matches('\n').lines().collect();
            if have == want {
                return None;
            }
            let row = (0..=have.len().max(want.len()))
                .find(|&i| have.get(i) != want.get(i))
                .unwrap_or_default();
            let show = |l: Option<&&str>| l.map_or("nothing".to_owned(), |l| format!("`{l}`"));
            (
                head.lines().count() + 2 + row,
                format!(
                    "knob table differs from the registry: found {}, expected {}",
                    show(have.get(row)),
                    show(want.get(row))
                ),
            )
        }
        _ => (
            1,
            format!("no knob table between two `{KNOB_MARKER}` lines"),
        ),
    };
    Some(Diagnostic {
        file: "README.md".to_owned(),
        line,
        rule: "env",
        message: format!(
            "{message} — regenerate it with `cargo run -p sp-analyze -- --knob-table`"
        ),
    })
}

/// `--fix-manifest`: prints a hot-function manifest skeleton seeded
/// from `#[inline]`-annotated library functions plus the traffic
/// layer's functions, path-scoped so common names stay unambiguous.
fn emit_manifest_skeleton(files: &[(String, String)]) -> i32 {
    let mut entries = Vec::new();
    for (rel, src) in files {
        if !is_lib(rel) {
            continue;
        }
        let sf = SourceFile::new(rel, src);
        let seed = if rel.ends_with("src/traffic.rs") {
            sf.all_fns()
        } else {
            sf.inline_annotated_fns()
        };
        for name in seed {
            entries.push(format!("{rel}:{name}"));
        }
    }
    entries.sort();
    entries.dedup();
    println!("# sp-analyze hot-function manifest (seeded by --fix-manifest).");
    println!("# One entry per line: [path-substring:]fn_name");
    println!("# Prune to the real hot set before committing.");
    for e in &entries {
        println!("{e}");
    }
    eprintln!("sp-analyze: {} candidate hot functions", entries.len());
    0
}

/// `--self-test`: seeds one violation per rule family through the full
/// pipeline (synthetic lib file + manifest + registry + README) and
/// verifies each is caught — proof the gate can still fail before CI
/// trusts a clean run.
fn run_self_test() -> i32 {
    // Built at runtime so the workspace scan never sees an
    // unregistered knob literal inside this binary's own source.
    let fake_knob = ["SP", "SELFTEST_ONLY"].join("_");
    let manifest = match Manifest::parse("walk_into\n") {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sp-analyze self-test: manifest parse failed: {e}");
            return 1;
        }
    };
    let fixtures: Vec<(&str, String)> = vec![
        (
            "alloc",
            "fn walk_into(n: usize) -> Vec<u32> { let v = vec![0; n]; v }".to_owned(),
        ),
        (
            "index",
            "fn walk_into(v: &[u32], i: usize) -> u32 { v[i] }".to_owned(),
        ),
        (
            "panic",
            "pub fn pick(x: Option<u32>) -> u32 { x.unwrap() }".to_owned(),
        ),
        (
            "concurrency",
            "pub fn fan_out() { std::thread::scope(|s| { let _ = s; }); }".to_owned(),
        ),
        (
            "env",
            format!("pub fn scale() -> bool {{ std::env::var(\"{fake_knob}\").is_ok() }}"),
        ),
        (
            "allow",
            "// sp-analyze: allow(panic)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }"
                .to_owned(),
        ),
    ];
    // A README with the exact knob table, so every diagnostic comes
    // from the seeded source, not from a missing table.
    let readme = readme_with_table();
    let mut failed = false;
    for (rule, src) in &fixtures {
        let files = vec![("crates/selftest/src/lib.rs".to_owned(), src.clone())];
        let diags = analyze(&files, &manifest, &readme);
        let hit = diags.iter().any(|d| d.rule == *rule);
        if hit {
            println!("self-test [{rule}]: caught");
        } else {
            println!("self-test [{rule}]: MISSED ({diags:?})");
            failed = true;
        }
    }
    // A clean fixture must stay clean: the gate must be able to pass.
    let clean = vec![(
        "crates/selftest/src/lib.rs".to_owned(),
        "pub fn walk_into(v: &mut [u32]) -> usize { v.iter().copied().sum::<u32>() as usize }"
            .to_owned(),
    )];
    let residue = analyze(&clean, &manifest, &readme);
    if residue.is_empty() {
        println!("self-test [clean]: no false positives");
    } else {
        println!("self-test [clean]: FALSE POSITIVES: {residue:?}");
        failed = true;
    }
    if failed {
        1
    } else {
        println!("sp-analyze: self-test passed");
        0
    }
}

/// A README holding exactly the generated knob table.
fn readme_with_table() -> String {
    format!(
        "# Knobs\n\n{KNOB_MARKER}\n{}{KNOB_MARKER}\n",
        sp_sync::knobs::markdown_table()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_catches_every_seeded_family() {
        assert_eq!(run_self_test(), 0);
    }

    #[test]
    fn missing_readme_entry_is_reported() {
        let manifest = Manifest::parse("walk_into\n").unwrap();
        let diags = analyze(&[], &manifest, "no knobs documented here");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].rule == "env" && diags[0].file == "README.md");
        let dropped = readme_with_table().replace("| `SP_SERVE_THREADS` |", "| `SP_OTHER` |");
        let diags = analyze(&[], &manifest, &dropped);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("SP_SERVE_THREADS"), "{diags:?}");
    }

    #[test]
    fn stale_readme_row_is_reported() {
        let manifest = Manifest::parse("walk_into\n").unwrap();
        let table = sp_sync::knobs::markdown_table();
        let stale = "| `SP_SERVICE_CHURN` | 100 | Movers per background epoch publish. |\n";
        let readme = readme_with_table().replace(&table, &format!("{table}{stale}"));
        let diags = analyze(&[], &manifest, &readme);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("SP_SERVICE_CHURN"), "{diags:?}");
        // "# Knobs", a blank line, the marker, the two header lines and
        // one line per registered knob come before the stale row.
        assert_eq!(diags[0].line, 6 + sp_sync::knobs::ENV_KNOBS.len());
    }

    #[test]
    fn edited_readme_default_is_reported() {
        let manifest = Manifest::parse("walk_into\n").unwrap();
        let readme = readme_with_table().replace("| 127.0.0.1:4617 |", "| 0.0.0.0:4617 |");
        let diags = analyze(&[], &manifest, &readme);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("0.0.0.0:4617"), "{diags:?}");
        assert!(analyze(&[], &manifest, &readme_with_table()).is_empty());
    }

    #[test]
    fn lib_scope_excludes_bins_tests_and_tools() {
        assert!(is_lib("crates/core/src/traffic.rs"));
        assert!(is_lib("src/lib.rs"));
        assert!(!is_lib("src/bin/straightpath.rs"));
        assert!(!is_lib("crates/net/tests/properties.rs"));
        assert!(!is_lib("crates/bench/benches/route_throughput.rs"));
        assert!(!is_lib("ci/bench_gate/src/main.rs"));
        assert!(!is_lib("examples/sweep.rs"));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert_eq!(run(vec!["--frobnicate".to_owned()]), 2);
        assert_eq!(run(vec!["--root".to_owned()]), 2);
    }
}
