//! Statistics, the result line, and the repeat mode that measures the
//! benchmark's own run-to-run spread.

use std::collections::BTreeMap;
use std::process::Command;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; NaN when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The three cut points of Python's `statistics.quantiles(data, n=4)`
/// (the default exclusive method), which is how the spread of a set of
/// runs is judged.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Prints the result object as the last line of stdout.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// `--repeat N`: runs the benchmark N times as separate processes, one
/// seed each starting at `seed`, and prints per metric the median, the
/// quartiles, the spread (interquartile distance over the median) and the
/// worst deviation from the median. Exits non-zero if any run failed.
pub fn repeat(forward: &[String], seed: u64, runs: usize) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut bad = 0;
    for k in 0..runs as u64 {
        let out = Command::new(&exe)
            .args(forward)
            .args(["--seed", &(seed + k).to_string()])
            .output()
            .map_err(|e| format!("run benchmark: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let digest = stdout
            .lines()
            .find(|l| l.starts_with("digest"))
            .unwrap_or("");
        println!("seed {}: {} {digest}", seed + k, out.status);
        if !out.status.success() || !last.contains("\"correct\": true") {
            bad += 1;
            println!("  {last}");
            continue;
        }
        for (name, unit, value) in parse_metrics(last) {
            values
                .entry(name)
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    println!(
        "{:<34} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "unit", "median", "q1", "q3", "spread", "worst"
    );
    for (name, (unit, v)) in &values {
        let [q1, med, q3] = quartiles(v);
        let worst = v.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
        println!(
            "{name:<34} {unit:>8} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4} {:>8.4}",
            (q3 - q1) / med.abs(),
            worst / med.abs()
        );
    }
    Ok(if bad == 0 { 0 } else { 1 })
}

/// `(name, unit, value)` for every metric of one result line.
fn parse_metrics(line: &str) -> Vec<(String, String, f64)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut rest = &line[start + "\"metrics\": {".len()..];
    let mut out = Vec::new();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_owned();
        let Some(v) = rest.find("\"value\": ") else {
            break;
        };
        rest = &rest[v + "\"value\": ".len()..];
        let num_end = rest.find(',').unwrap_or(rest.len());
        let value = rest[..num_end].trim().parse::<f64>().unwrap_or(f64::NAN);
        let Some(u) = rest.find("\"unit\": \"") else {
            break;
        };
        rest = &rest[u + "\"unit\": \"".len()..];
        let Some(uend) = rest.find('"') else { break };
        let unit = rest[..uend].to_owned();
        rest = &rest[uend + 1..];
        if let Some(close) = rest.find('}') {
            rest = &rest[close + 1..];
        }
        out.push((name, unit, value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \"unit\": \"1/s\"}}}";
        let got = parse_metrics(line);
        assert_eq!(
            got,
            vec![
                ("a.b".to_owned(), "ms".to_owned(), 1.5),
                ("c".to_owned(), "1/s".to_owned(), 2.0)
            ]
        );
    }
}
