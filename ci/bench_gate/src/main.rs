//! The CI perf-regression gate over the workspace's `BENCH_*.json`
//! artifacts.
//!
//! Usage:
//!
//! ```sh
//! bench_gate [--allow-missing] \
//!     <baseline.json> <current.json> [<baseline2.json> <current2.json> ...]
//! ```
//!
//! Each fresh artifact is gated against its baseline, in CI the
//! committed `BENCH_*.json`, under one fixed rule. For every file pair,
//! result rows are matched by position; a row's string-valued fields
//! (scenario / case names) must agree, and every `*_seconds` and
//! `*_bytes_per_node` value in the baseline is compared against the
//! fresh measurement. A metric **regresses** when
//!
//! ```text
//! current > baseline * (1 + TOLERANCE) + slack
//! ```
//!
//! `TOLERANCE` (25%) absorbs machine-relative drift; `SLACK` (2 ms,
//! absolute seconds) keeps microsecond-scale metrics — whose stddev
//! rivals their median — from tripping the gate on scheduler noise.
//! **Percentile metrics** (`*_p50_seconds`, `*_p95_seconds`,
//! `*_p99_seconds` — per-event tail latencies, e.g. the
//! `service_latency` rows) use `LATENCY_SLACK` (25 µs) instead: a
//! per-query tail lives three orders of magnitude below the wall-clock
//! metrics, so the 2 ms slack would swallow any real tail regression
//! whole (a doubled p99 would still read "within tolerance"), while
//! 25 µs still absorbs scheduler jitter on the single-digit-microsecond
//! p50s. Informational fields (`*_samples`, `*_stddev`, `speedup*`,
//! thread counts) are never gated. Exit code is non-zero when any
//! metric regresses, so the CI job fails loudly.
//!
//! A metric present in the baseline but **absent from the fresh run**
//! is a named `MISSING` gate failure (exit 1) pointing at the row and
//! key — a bench writer that silently dropped a metric must not pass.
//! `--allow-missing` downgrades those findings to warnings for the one
//! legitimate case: a PR that deliberately retires a metric, gated
//! against a baseline that still carries it. Any other `--` argument is
//! a usage error (exit 2).
//!
//! The parser is a tiny recursive-descent JSON reader for the schema
//! our bench writers emit — the workspace deliberately has no serde.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The JSON subset the bench artifacts use.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        c => c as char, // \" \\ \/ and friends
                    });
                    self.pos += 1;
                }
                c => {
                    out.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("bad object at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("bad array at offset {}", self.pos)),
            }
        }
    }
}

/// One gate verdict line.
#[derive(Debug, Clone, PartialEq)]
struct Finding {
    row: String,
    metric: String,
    baseline: f64,
    /// `None` when the metric is in the baseline but absent from the
    /// fresh run.
    current: Option<f64>,
    regressed: bool,
}

/// Relative headroom every gated metric gets (+25%).
const TOLERANCE: f64 = 0.25;

/// Absolute headroom (seconds / bytes-per-node) for wall-clock medians
/// and memory metrics.
const SLACK: f64 = 0.002;

/// Absolute headroom (seconds) for per-event percentile metrics
/// (`*_p50/_p95/_p99_seconds`), which live at microsecond scale.
const LATENCY_SLACK: f64 = 0.000025;

const USAGE: &str =
    "usage: bench_gate [--allow-missing] <baseline.json> <current.json> [<baseline2.json> <current2.json> ...]";

/// The absolute headroom for metric key `k`.
fn slack_for(k: &str) -> f64 {
    if is_percentile_metric(k) {
        LATENCY_SLACK
    } else {
        SLACK
    }
}

/// True for the per-event tail-latency keys the latency slack applies
/// to.
fn is_percentile_metric(key: &str) -> bool {
    key.ends_with("_p50_seconds") || key.ends_with("_p95_seconds") || key.ends_with("_p99_seconds")
}

/// Compares one parsed baseline/current artifact pair.
fn compare(baseline: &Value, current: &Value, allow_missing: bool) -> Result<Vec<Finding>, String> {
    let (b, c) = (
        baseline.as_object().ok_or("baseline is not an object")?,
        current.as_object().ok_or("current is not an object")?,
    );
    let name = |o: &BTreeMap<String, Value>| {
        o.get("benchmark")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let (bn, cn) = (name(b), name(c));
    if bn != cn {
        return Err(format!(
            "benchmark mismatch: baseline '{bn}' vs current '{cn}'"
        ));
    }
    let rows = |o: &BTreeMap<String, Value>| -> Result<Vec<Value>, String> {
        Ok(o.get("results")
            .and_then(Value::as_array)
            .ok_or("missing results array")?
            .to_vec())
    };
    let (brows, crows) = (rows(b)?, rows(c)?);
    if brows.len() != crows.len() {
        return Err(format!(
            "{bn}: baseline has {} result rows, current has {}",
            brows.len(),
            crows.len()
        ));
    }
    let mut findings = Vec::new();
    for (i, (br, cr)) in brows.iter().zip(&crows).enumerate() {
        let (br, cr) = (
            br.as_object().ok_or("baseline row is not an object")?,
            cr.as_object().ok_or("current row is not an object")?,
        );
        // Identity: every string field (scenario / case tag) must agree,
        // so a reordered or renamed row can never be compared silently.
        let label = br
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| format!("{k}={s}")))
            .collect::<Vec<_>>()
            .join(",");
        for (k, v) in br {
            if let Some(want) = v.as_str() {
                let got = cr.get(k).and_then(Value::as_str);
                if got != Some(want) {
                    return Err(format!(
                        "{bn} row {i}: field '{k}' is '{want}' in baseline but {:?} in current",
                        got
                    ));
                }
            }
        }
        let row_tag = if label.is_empty() {
            format!("{bn}[{i}]")
        } else {
            format!("{bn}[{label}]")
        };
        for (k, v) in br {
            if !k.ends_with("_seconds") && !k.ends_with("_bytes_per_node") {
                continue;
            }
            let base = v
                .as_number()
                .ok_or_else(|| format!("{row_tag}: baseline '{k}' is not a number"))?;
            // A gated metric the fresh run no longer reports is a
            // first-class finding, not a parse error: the gate names
            // the row and key, fails (unless --allow-missing), and
            // still prints every other verdict.
            let cur = match cr.get(k) {
                Some(v) => Some(
                    v.as_number()
                        .ok_or_else(|| format!("{row_tag}: current '{k}' is not a number"))?,
                ),
                None => None,
            };
            findings.push(Finding {
                row: row_tag.clone(),
                metric: k.clone(),
                baseline: base,
                current: cur,
                regressed: match cur {
                    Some(cur) => cur > base * (1.0 + TOLERANCE) + slack_for(k),
                    None => !allow_missing,
                },
            });
        }
    }
    Ok(findings)
}

fn run(args: &[String]) -> Result<Vec<Finding>, String> {
    let mut allow_missing = false;
    let mut paths: Vec<&String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--allow-missing" => allow_missing = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option '{flag}'\n{USAGE}"));
            }
            _ => paths.push(a),
        }
    }
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        return Err(USAGE.to_owned());
    }
    let mut findings = Vec::new();
    for pair in paths.chunks(2) {
        let read =
            |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
        let baseline = Parser::parse(&read(pair[0])?).map_err(|e| format!("{}: {e}", pair[0]))?;
        let cur = Parser::parse(&read(pair[1])?).map_err(|e| format!("{}: {e}", pair[1]))?;
        findings.extend(compare(&baseline, &cur, allow_missing)?);
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::from(2)
        }
        Ok(findings) => {
            let mut failed = 0usize;
            for f in &findings {
                let Some(cur) = f.current else {
                    let verdict = if f.regressed { "MISSING" } else { "missing-ok" };
                    println!(
                        "{verdict:>9}  {} {}: {:.6}s -> (absent from current run)",
                        f.row, f.metric, f.baseline
                    );
                    failed += usize::from(f.regressed);
                    continue;
                };
                let ratio = if f.baseline > 0.0 {
                    cur / f.baseline
                } else {
                    f64::INFINITY
                };
                let verdict = if f.regressed { "REGRESSED" } else { "ok" };
                println!(
                    "{verdict:>9}  {} {}: {:.6}s -> {:.6}s ({ratio:.2}x)",
                    f.row, f.metric, f.baseline, cur
                );
                failed += usize::from(f.regressed);
            }
            if failed > 0 {
                eprintln!("bench_gate: {failed}/{} metrics regressed", findings.len());
                ExitCode::FAILURE
            } else {
                println!(
                    "bench_gate: all {} metrics within tolerance",
                    findings.len()
                );
                ExitCode::SUCCESS
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "benchmark": "demo",
  "unit": "seconds (median over samples)",
  "results": [
    {"case": "fast", "n": 100, "samples": 5, "time_seconds": 0.100000, "time_stddev": 0.001000},
    {"case": "slow", "n": 100, "samples": 5, "time_seconds": 0.500000, "time_stddev": 0.002000}
  ]
}"#;

    fn with_time(case_times: &[(&str, f64)]) -> Value {
        let rows: Vec<String> = case_times
            .iter()
            .map(|(c, t)| {
                format!(
                    "{{\"case\": \"{c}\", \"n\": 100, \"samples\": 5, \"time_seconds\": {t:.6}, \"time_stddev\": 0.001}}"
                )
            })
            .collect();
        Parser::parse(&format!(
            "{{\"benchmark\": \"demo\", \"results\": [{}]}}",
            rows.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn parses_real_artifact_shape() {
        let v = Parser::parse(BASE).unwrap();
        let rows = v.as_object().unwrap()["results"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].as_object().unwrap()["time_seconds"].as_number(),
            Some(0.1)
        );
        assert_eq!(rows[1].as_object().unwrap()["case"].as_str(), Some("slow"));
    }

    #[test]
    fn unchanged_medians_pass() {
        let base = Parser::parse(BASE).unwrap();
        let cur = with_time(&[("fast", 0.1), ("slow", 0.5)]);
        let f = compare(&base, &cur, false).unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| !x.regressed));
    }

    #[test]
    fn synthetic_2x_slowdown_fails() {
        let base = Parser::parse(BASE).unwrap();
        let cur = with_time(&[("fast", 0.2), ("slow", 1.0)]);
        let f = compare(&base, &cur, false).unwrap();
        assert!(
            f.iter().all(|x| x.regressed),
            "2x slowdown must trip the gate"
        );
    }

    #[test]
    fn slack_absorbs_noise_floor_micro_metrics() {
        // 1 µs baseline jumping to 1 ms stays inside the 2 ms slack,
        // although 25% tolerance alone would flag it.
        let base = with_time(&[("fast", 0.000001)]);
        let cur = with_time(&[("fast", 0.001)]);
        let f = compare(&base, &cur, false).unwrap();
        assert!(!f[0].regressed);
    }

    #[test]
    fn just_inside_tolerance_passes_and_just_outside_fails() {
        let base = with_time(&[("slow", 0.5)]);
        let ok = with_time(&[("slow", 0.624)]); // 0.5 * 1.25 + slack > this
        let bad = with_time(&[("slow", 0.628)]);
        assert!(!compare(&base, &ok, false).unwrap()[0].regressed);
        assert!(compare(&base, &bad, false).unwrap()[0].regressed);
    }

    #[test]
    fn renamed_row_is_an_error_not_a_pass() {
        let base = with_time(&[("fast", 0.1)]);
        let cur = with_time(&[("other", 0.1)]);
        assert!(compare(&base, &cur, false).is_err());
    }

    #[test]
    fn row_count_mismatch_is_an_error() {
        let base = with_time(&[("fast", 0.1)]);
        let cur = with_time(&[("fast", 0.1), ("extra", 0.1)]);
        assert!(compare(&base, &cur, false).is_err());
    }

    #[test]
    fn missing_metric_in_current_is_a_named_gate_failure() {
        // A bench writer that silently dropped a metric must fail the
        // gate with a finding naming the row and key — not pass, and
        // not die as an opaque parse-level error that hides the rest
        // of the report.
        let base = with_time(&[("fast", 0.1)]);
        let cur = Parser::parse(
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"fast\", \"n\": 100}]}",
        )
        .unwrap();
        let f = compare(&base, &cur, false).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].metric, "time_seconds");
        assert_eq!(f[0].current, None);
        assert!(f[0].regressed, "a vanished metric must fail the gate");
        assert!(
            f[0].row.contains("fast"),
            "finding names the row: {}",
            f[0].row
        );
    }

    #[test]
    fn allow_missing_downgrades_vanished_metrics_only() {
        let base = with_time(&[("fast", 0.1)]);
        let cur = Parser::parse(
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"fast\", \"n\": 100}]}",
        )
        .unwrap();
        let f = compare(&base, &cur, true).unwrap();
        assert_eq!((f[0].current, f[0].regressed), (None, false));
        // The escape hatch never excuses a real slowdown.
        let slow = with_time(&[("fast", 0.9)]);
        let f = compare(&base, &slow, true).unwrap();
        assert!(
            f[0].regressed,
            "--allow-missing must not forgive regressions"
        );
    }

    #[test]
    fn allow_missing_flag_reaches_the_gate_through_run() {
        let work = temp_dir("allowmissing");
        let committed = write_artifact(&work, "base.json", 0.1);
        let gutted = work.join("cur.json");
        std::fs::write(
            &gutted,
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"fast\", \"n\": 100}]}",
        )
        .unwrap();
        let cur = gutted.to_string_lossy().into_owned();
        // Without the flag: a failing MISSING finding (exit 1 path).
        let f = run(&[committed.clone(), cur.clone()]).unwrap();
        assert!(f[0].regressed && f[0].current.is_none());
        // With it: the same finding, downgraded.
        let f = run(&["--allow-missing".into(), committed, cur]).unwrap();
        assert!(!f[0].regressed && f[0].current.is_none());
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn threshold_and_history_flags_are_usage_errors() {
        // The thresholds are fixed and the given baseline is the only
        // one: any other flag fails (exit 2) and names itself rather
        // than being read as an artifact path.
        let work = temp_dir("usage");
        let a = write_artifact(&work, "a.json", 0.1);
        let b = write_artifact(&work, "b.json", 0.1);
        let cases: [&[&str]; 2] = [
            &["--tolerance", "0.3"],
            &["--history", "h", "--branch", "b"],
        ];
        for flags in cases {
            let mut args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            args.extend([a.clone(), b.clone()]);
            let err = run(&args).unwrap_err();
            assert!(
                err.contains(flags[0]) && err.contains("usage"),
                "{flags:?}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn percentile_metrics_are_gated_with_the_latency_slack() {
        let row = |p50: f64, p99: f64| {
            Parser::parse(&format!(
                "{{\"benchmark\": \"demo\", \"results\": [{{\"case\": \"churn\", \"run_seconds\": 0.4, \"query_p50_seconds\": {p50:.9}, \"query_p99_seconds\": {p99:.9}}}]}}"
            ))
            .unwrap()
        };
        // Microsecond-scale tails: a 2x p99 regression (144 µs -> 288
        // µs) must trip the gate even though it is far inside the 2 ms
        // wall-clock slack that gates run_seconds.
        let base = row(0.000006, 0.000144);
        let f = compare(&base, &row(0.000006, 0.000288), false).unwrap();
        let p99 = f.iter().find(|x| x.metric == "query_p99_seconds").unwrap();
        assert!(p99.regressed, "2x p99 regression must trip the gate");
        assert!(
            f.iter().filter(|x| x.regressed).count() == 1,
            "only the p99 regressed: {f:?}"
        );
        // Sub-latency-slack jitter on a tiny p50 never trips.
        let f = compare(&base, &row(0.000030, 0.000144), false).unwrap();
        assert!(
            f.iter().all(|x| !x.regressed),
            "25 µs floor absorbs micro-jitter"
        );
    }

    #[test]
    fn percentile_key_detection_is_suffix_exact() {
        assert!(is_percentile_metric("query_p50_seconds"));
        assert!(is_percentile_metric("query_p95_seconds"));
        assert!(is_percentile_metric("query_p99_seconds"));
        assert!(!is_percentile_metric("run_seconds"));
        assert!(!is_percentile_metric("p99_stddev"));
        assert!(!is_percentile_metric("query_p90_seconds"));
    }

    #[test]
    fn truncated_artifact_is_a_parse_error() {
        // A build that dies mid-write leaves a half artifact; the gate
        // must refuse it (exit 2 via run's Err), never compare it.
        let cut = &BASE[..BASE.len() / 2];
        assert!(Parser::parse(cut).is_err());
        let dir = temp_dir("truncated");
        let good = write_artifact(&dir, "base.json", 0.1);
        let bad = dir.join("cur.json");
        std::fs::write(&bad, cut).unwrap();
        let err = run(&[good, bad.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.contains("cur.json"), "error names the bad file: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_median_is_a_parse_error_not_a_silent_pass() {
        // `NaN > bar` is false for every bar, so a NaN median that
        // slipped through comparison would read as "within tolerance".
        // The JSON grammar has no NaN literal and the parser must say
        // so rather than improvise one.
        let nan =
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"fast\", \"time_seconds\": NaN}]}";
        assert!(Parser::parse(nan).is_err());
        // Neither can it hide as a non-numeric stand-in: parsing
        // succeeds but comparison refuses the row (the stringly metric
        // trips the identity check before the number check can).
        let stringly =
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"fast\", \"time_seconds\": \"NaN\"}]}";
        let base = Parser::parse(stringly).unwrap();
        let cur = with_time(&[("fast", 0.1)]);
        let err = compare(&base, &cur, false).unwrap_err();
        assert!(err.contains("time_seconds"), "got: {err}");
    }

    #[test]
    fn missing_samples_field_is_informational_not_fatal() {
        // `samples` (like `*_stddev`) is bookkeeping, not a gated
        // metric: an artifact from an older bench writer without it
        // still gates on its medians.
        let no_samples =
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"fast\", \"time_seconds\": 0.1}]}";
        let base = Parser::parse(no_samples).unwrap();
        let cur = with_time(&[("fast", 0.3)]);
        let f = compare(&base, &cur, false).unwrap();
        assert_eq!(f.len(), 1, "the median is still gated");
        assert!(f[0].regressed, "3x slowdown still trips without samples");
    }

    #[test]
    fn missing_results_array_is_an_error() {
        let empty = Parser::parse("{\"benchmark\": \"demo\"}").unwrap();
        let cur = with_time(&[("fast", 0.1)]);
        let err = compare(&empty, &cur, false).unwrap_err();
        assert!(err.contains("results"), "got: {err}");
    }

    #[test]
    fn benchmark_name_mismatch_is_an_error() {
        let base = Parser::parse("{\"benchmark\": \"a\", \"results\": []}").unwrap();
        let cur = Parser::parse("{\"benchmark\": \"b\", \"results\": []}").unwrap();
        assert!(compare(&base, &cur, false).is_err());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_gate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_artifact(dir: &std::path::Path, name: &str, time: f64) -> String {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"benchmark\": \"demo\", \"results\": [{{\"case\": \"fast\", \"time_seconds\": {time:.6}}}]}}"
            ),
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn bytes_per_node_metrics_are_gated() {
        let row = |bytes: f64| {
            Parser::parse(&format!(
                "{{\"benchmark\": \"demo\", \"results\": [{{\"case\": \"p\", \"time_seconds\": 0.1, \"csr_bytes_per_node\": {bytes:.1}, \"adjacency_compression\": 2.5}}]}}"
            ))
            .unwrap()
        };
        let base = row(80.0);
        let f = compare(&base, &row(82.0), false).unwrap();
        assert_eq!(f.len(), 2, "seconds + bytes must both be gated");
        assert!(f.iter().all(|x| !x.regressed));
        let f = compare(&base, &row(160.0), false).unwrap();
        assert!(
            f.iter()
                .any(|x| x.metric == "csr_bytes_per_node" && x.regressed),
            "2x memory growth must trip the gate"
        );
    }

    #[test]
    fn numeric_non_second_fields_are_not_gated() {
        // Thread counts and speedups may differ across machines.
        let base = Parser::parse(
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"p\", \"threads\": 1, \"time_seconds\": 0.1, \"speedup\": 1.0}]}",
        )
        .unwrap();
        let cur = Parser::parse(
            "{\"benchmark\": \"demo\", \"results\": [{\"case\": \"p\", \"threads\": 8, \"time_seconds\": 0.05, \"speedup\": 4.0}]}",
        )
        .unwrap();
        let f = compare(&base, &cur, false).unwrap();
        assert_eq!(f.len(), 1);
        assert!(!f[0].regressed);
    }
}
