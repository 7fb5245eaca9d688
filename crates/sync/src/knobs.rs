//! The declared registry of every `SP_*` environment knob the
//! workspace reads, and the one thread-count policy behind the
//! `SP_*_THREADS` family.
//!
//! Knobs used to be scattered string literals — easy to add, easy to
//! leave undocumented, impossible to audit. Now every knob is one row
//! in [`ENV_KNOBS`], every read goes through [`env_var`] /
//! [`env_flag`] / [`configured_threads_for`] (which refuse
//! unregistered names), and the `sp-analyze` CI pass fails the build
//! when an `SP_*` literal appears outside this file or the README's
//! knob table differs from the generated one ([`markdown_table`]).

/// One declared environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnob {
    /// The environment variable name (`SP_…`).
    pub name: &'static str,
    /// What the knob controls, for the generated README table.
    pub summary: &'static str,
    /// Behavior when the variable is unset.
    pub default: &'static str,
}

/// Every `SP_*` environment variable the workspace reads. Add a row
/// here (and regenerate the README table with
/// `cargo run -p sp-analyze -- --knob-table`) before reading a new
/// knob anywhere — `sp-analyze` enforces both.
pub const ENV_KNOBS: &[EnvKnob] = &[
    EnvKnob {
        name: "SP_SERVE_THREADS",
        summary: "Worker threads in the `sp-serve` TCP front end's connection pool \
                  (one `ServiceSession` + reused route buffer per worker).",
        default: "available parallelism",
    },
    EnvKnob {
        name: "SP_SERVE_ADDR",
        summary: "Listen address for the `sp-served` binary (`host:port`; port 0 \
                  picks an ephemeral port).",
        default: "127.0.0.1:4617",
    },
    EnvKnob {
        name: "SP_SERVE_TELEMETRY",
        summary: "Path of the `sp-serve` periodic telemetry JSONL export; unset \
                  disables the exporter thread.",
        default: "unset (no export)",
    },
    EnvKnob {
        name: "SP_BENCH_SCALE",
        summary: "Set to `large` to include the million-node bench rows \
                  (`construct_1m`, `local_1m`) in sp-bench runs.",
        default: "unset (small-scale rows only)",
    },
];

/// The registry row for `name`, or `None` for unregistered names.
pub fn knob(name: &str) -> Option<&'static EnvKnob> {
    ENV_KNOBS.iter().find(|k| k.name == name)
}

/// Reads a **registered** knob from the environment.
///
/// # Panics
///
/// Panics when `name` is not in [`ENV_KNOBS`] — an unregistered read
/// is exactly the drift this registry exists to stop, and `sp-analyze`
/// keeps it from ever reaching a release build.
pub fn env_var(name: &str) -> Option<String> {
    // sp-analyze: allow(panic, unregistered knob reads must fail loudly in tests rather than ship)
    assert!(
        knob(name).is_some(),
        "environment knob {name} is not declared in sp_sync::knobs::ENV_KNOBS"
    );
    // sp-analyze: allow(env, this is the single blessed env read behind the registry)
    std::env::var(name).ok()
}

/// True when the registered knob `name` is set to exactly `value`.
pub fn env_flag(name: &str, value: &str) -> bool {
    env_var(name).is_some_and(|v| v == value)
}

/// The workspace-wide thread-count policy, parameterized by the
/// `SP_*_THREADS` knob that pins it: the knob's value when set to a
/// positive integer, otherwise [`default_threads`].
///
/// Every thread-count decision in the workspace routes through here or
/// [`default_threads`] (enforced by `sp-analyze`'s concurrency rule),
/// so pinning a knob to `1` always yields the serial path and the
/// parity tests can sweep thread counts deterministically.
///
/// # Panics
///
/// Panics when `env` is not a registered knob (see [`env_var`]).
pub fn configured_threads_for(env: &str) -> usize {
    if let Some(raw) = env_var(env) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    default_threads()
}

/// The knob-free thread count: [`std::thread::available_parallelism`],
/// or 1 when the host cannot report it. Callers without a pin knob of
/// their own (`TrafficEngine`, the sweep runner) take their worker
/// count from here and pin it in code when they need a fixed one.
pub fn default_threads() -> usize {
    // sp-analyze: allow(concurrency, this is the single blessed available_parallelism fallback)
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The generated markdown knob table the README embeds between its
/// `<!-- sp-analyze:knobs -->` markers; `sp-analyze` requires the
/// README's copy to equal it line for line, so the docs can never
/// drift from the registry.
pub fn markdown_table() -> String {
    let mut out = String::from("| Knob | Default | Controls |\n|---|---|---|\n");
    for k in ENV_KNOBS {
        let squash = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            k.name,
            squash(k.default),
            squash(k.summary)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_knob_is_unique_and_sp_prefixed() {
        for (i, k) in ENV_KNOBS.iter().enumerate() {
            assert!(k.name.starts_with("SP_"), "{} must be SP_-prefixed", k.name);
            assert!(!k.summary.is_empty() && !k.default.is_empty());
            assert!(
                ENV_KNOBS[i + 1..].iter().all(|o| o.name != k.name),
                "duplicate knob {}",
                k.name
            );
        }
    }

    #[test]
    fn lookup_finds_registered_knobs_only() {
        assert!(knob("SP_SERVE_THREADS").is_some());
        assert!(knob("SP_NOT_A_KNOB").is_none());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn unregistered_read_panics() {
        let _ = env_var("SP_NOT_A_KNOB");
    }

    #[test]
    fn thread_policy_reads_the_pin_knob() {
        // Serializes with other env-reading tests via a throwaway var:
        // the test suite only mutates this one knob.
        std::env::set_var("SP_SERVE_THREADS", "3");
        assert_eq!(configured_threads_for("SP_SERVE_THREADS"), 3);
        std::env::set_var("SP_SERVE_THREADS", "0");
        assert!(configured_threads_for("SP_SERVE_THREADS") >= 1);
        std::env::set_var("SP_SERVE_THREADS", "nonsense");
        assert!(configured_threads_for("SP_SERVE_THREADS") >= 1);
        std::env::remove_var("SP_SERVE_THREADS");
        assert!(configured_threads_for("SP_SERVE_THREADS") >= 1);
    }

    #[test]
    fn markdown_table_lists_every_knob() {
        let table = markdown_table();
        for k in ENV_KNOBS {
            assert!(table.contains(k.name), "table must list {}", k.name);
        }
        assert_eq!(table.lines().count(), 2 + ENV_KNOBS.len());
    }
}
