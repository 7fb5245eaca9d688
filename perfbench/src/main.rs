//! perfbench: the serving benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <read_fa|publish_fa|churn_ia> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <first> --seconds <s> --trace <0|1> --repeat <runs>
//! ```
//!
//! `--serve <fa|ia> --field-seed <n>` is the server child the driver
//! starts itself.

mod client;
mod field;
mod report;
mod run;
mod server;
mod walk;

use run::Workload;

const USAGE: &str = "usage: perfbench --workload <read_fa|publish_fa|churn_ia> --seed <n> \
                     --seconds <s> --trace <0|1> [--repeat <runs>]";

fn main() {
    let code = match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn cli(args: Vec<String>) -> Result<i32, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut serve = None;
    let mut field_seed = None;
    let mut repeat = None;
    // Everything but --seed and --repeat, for the runs of --repeat.
    let mut forward = Vec::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num(&value)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?
            }
            "--trace" => trace = num(&value)? != 0,
            "--serve" => {
                serve = Some(
                    field::Kind::parse(&value).ok_or_else(|| format!("unknown field {value}"))?,
                )
            }
            "--field-seed" => field_seed = Some(num(&value)?),
            "--repeat" => repeat = Some(num(&value)? as usize),
            other => return Err(format!("unknown argument {other}")),
        }
        if !matches!(flag.as_str(), "--seed" | "--repeat") {
            forward.extend([flag, value]);
        }
    }
    if let Some(kind) = serve {
        let field_seed = field_seed.ok_or("--serve needs --field-seed")?;
        server::serve_main(kind, field_seed)?;
        return Ok(0);
    }
    let w = workload.ok_or("--workload is required")?;
    match repeat {
        Some(runs) => report::repeat(&forward, seed, runs),
        None => Ok(run::main(w, seed, seconds, trace)),
    }
}
