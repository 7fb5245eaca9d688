//! `sp-serve-load`: a multi-client load generator and checker for
//! `sp-served`.
//!
//! ```text
//! sp-serve-load (--addr HOST:PORT | --spawn) [--clients C] [--queries N]
//!               [--trace-every K] [--churn M] [--chaos SPEC] [--area A]
//!               [--no-shutdown]
//! ```
//!
//! Each client thread issues `N` deterministic queries (every `K`-th
//! with a hop trace); an optional churn thread applies `M`-node `MOVE`
//! batches the whole time, and `--chaos` injects one recipe at the
//! halfway mark. The run then cross-checks the server's `STATS`
//! against its own tally — total queries, delivered counts, the
//! latency count and percentile order of the merged latency
//! histogram, and the epoch invariant (every answer's epoch at most
//! the final epoch, nondecreasing per connection) — and exits nonzero
//! on any mismatch or failed request, the `CHAOS` included.
//! With `--spawn` it launches a sibling `sp-served` on an ephemeral
//! port first and shuts it down after (the CI serve-smoke step).

use sp_core::ServiceScheme;
use sp_serve::ServeClient;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

#[derive(Clone)]
struct LoadArgs {
    addr: Option<String>,
    spawn: bool,
    clients: usize,
    queries: usize,
    trace_every: usize,
    churn: usize,
    chaos: Option<String>,
    area: f64,
    shutdown: bool,
}

impl Default for LoadArgs {
    fn default() -> LoadArgs {
        LoadArgs {
            addr: None,
            spawn: false,
            clients: 4,
            queries: 2500,
            trace_every: 16,
            churn: 0,
            chaos: None,
            area: 200.0,
            shutdown: true,
        }
    }
}

fn parse_args() -> LoadArgs {
    let mut out = LoadArgs::default();
    let mut args = std::env::args().skip(1);
    let need = |args: &mut dyn Iterator<Item = String>, what: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("sp-serve-load: {what} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => out.addr = Some(need(&mut args, "--addr")),
            "--spawn" => out.spawn = true,
            "--clients" => out.clients = need(&mut args, "--clients").parse().unwrap_or(4),
            "--queries" => out.queries = need(&mut args, "--queries").parse().unwrap_or(2500),
            "--trace-every" => {
                out.trace_every = need(&mut args, "--trace-every").parse().unwrap_or(16)
            }
            "--churn" => out.churn = need(&mut args, "--churn").parse().unwrap_or(0),
            "--chaos" => out.chaos = Some(need(&mut args, "--chaos")),
            "--area" => out.area = need(&mut args, "--area").parse().unwrap_or(200.0),
            "--no-shutdown" => out.shutdown = false,
            "--help" | "-h" => {
                println!(
                    "usage: sp-serve-load (--addr HOST:PORT | --spawn) [--clients C] \
                     [--queries N] [--trace-every K] [--churn M] [--chaos SPEC] \
                     [--area A] [--no-shutdown]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("sp-serve-load: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if out.addr.is_none() && !out.spawn {
        eprintln!("sp-serve-load: need --addr or --spawn");
        std::process::exit(2);
    }
    out
}

/// Launches the sibling `sp-served` binary on an ephemeral port and
/// parses the announced address off its stdout.
fn spawn_server() -> (Child, String) {
    let me = std::env::current_exe().expect("current_exe");
    let served = me.with_file_name(if cfg!(windows) {
        "sp-served.exe"
    } else {
        "sp-served"
    });
    let mut child = Command::new(&served)
        .env("SP_SERVE_ADDR", "127.0.0.1:0")
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("sp-serve-load: cannot spawn {}: {e}", served.display());
            std::process::exit(1);
        });
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.unwrap_or_default();
        if let Some(rest) = line.strip_prefix("sp-served listening on ") {
            let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
            // Keep draining the pipe so the child never blocks on it.
            std::thread::spawn(move || for _ in lines {});
            return (child, addr);
        }
    }
    eprintln!("sp-serve-load: sp-served exited before announcing its address");
    std::process::exit(1);
}

/// Per-client tally, merged at the end.
#[derive(Default, Clone, Copy)]
struct Tally {
    queries: u64,
    delivered: u64,
    traced: u64,
    max_epoch: u64,
    epoch_regressions: u64,
    errors: u64,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn client_run(addr: &str, id: usize, args: &LoadArgs, nodes: u32) -> Tally {
    let mut t = Tally::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client {id}: connect failed: {e}");
            t.errors += 1;
            return t;
        }
    };
    let mut rng = 0x5EED_0000 + id as u64;
    let mut last_epoch = 0u64;
    let schemes = ServiceScheme::ALL;
    for k in 0..args.queries {
        let src = (lcg(&mut rng) % nodes as u64) as u32;
        let dst = (lcg(&mut rng) % nodes as u64) as u32;
        let scheme = schemes[k % schemes.len()];
        let trace = args.trace_every > 0 && k % args.trace_every == 0;
        match client.query(src, dst, scheme, trace) {
            Ok(reply) => {
                t.queries += 1;
                if reply.delivered() {
                    t.delivered += 1;
                }
                if trace {
                    t.traced += 1;
                    // The path is source-inclusive: hops == len - 1.
                    let path_len = reply.path.as_ref().map(|p| p.len()).unwrap_or(0);
                    if path_len == 0 || reply.hops as usize != path_len - 1 {
                        eprintln!(
                            "client {id}: trace length {path_len} disagrees with hops {}",
                            reply.hops
                        );
                        t.errors += 1;
                    }
                }
                if reply.epoch < last_epoch {
                    t.epoch_regressions += 1;
                }
                last_epoch = reply.epoch;
                t.max_epoch = t.max_epoch.max(reply.epoch);
            }
            Err(e) => {
                eprintln!("client {id}: query {k} failed: {e}");
                t.errors += 1;
            }
        }
    }
    t
}

/// Applies `MOVE` batches for the whole query phase: `churn` nodes per
/// batch, repositioned uniformly inside the area.
fn churn_run(addr: &str, args: &LoadArgs, nodes: u32, stop: &std::sync::Mutex<bool>) -> (u64, u64) {
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return (0, 1),
    };
    let mut rng = 0xC0FFEE_u64;
    let mut batches = 0u64;
    let mut errors = 0u64;
    let mut moves = Vec::with_capacity(args.churn);
    loop {
        if *sp_sync::lock_recover(stop) {
            return (batches, errors);
        }
        moves.clear();
        for _ in 0..args.churn {
            let node = (lcg(&mut rng) % nodes as u64) as u32;
            let x = (lcg(&mut rng) % 10_000) as f64 / 10_000.0 * args.area;
            let y = (lcg(&mut rng) % 10_000) as f64 / 10_000.0 * args.area;
            moves.push((node, x, y));
        }
        match client.move_batch(&moves) {
            Ok(_) => batches += 1,
            Err(e) => {
                eprintln!("churn: move failed: {e}");
                errors += 1;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

fn main() {
    let args = parse_args();
    let (child, addr) = if args.spawn {
        let (child, addr) = spawn_server();
        (Some(child), addr)
    } else {
        (None, args.addr.clone().unwrap_or_default())
    };

    let mut probe = ServeClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("sp-serve-load: connect {addr}: {e}");
        std::process::exit(1);
    });
    let (epoch0, nodes, workers) = probe.info().unwrap_or_else(|e| {
        eprintln!("sp-serve-load: INFO failed: {e}");
        std::process::exit(1);
    });
    println!("target {addr}: nodes={nodes} workers={workers} epoch={epoch0}");

    let start = std::time::Instant::now();
    let stop_churn = std::sync::Mutex::new(false);
    let (tallies, churn_result, chaos_errors) = std::thread::scope(|s| {
        let churn_handle = (args.churn > 0).then(|| {
            let (addr, args, stop) = (&addr, &args, &stop_churn);
            s.spawn(move || churn_run(addr, args, nodes, stop))
        });
        let handles: Vec<_> = (0..args.clients.max(1))
            .map(|id| {
                let (addr, args) = (&addr, &args);
                s.spawn(move || client_run(addr, id, args, nodes))
            })
            .collect();
        let mut chaos_errors = 0;
        if let Some(spec) = &args.chaos {
            // Inject at roughly the halfway mark of the query phase.
            std::thread::sleep(std::time::Duration::from_millis(50));
            match probe.chaos(5, 99, spec) {
                Ok((epoch, clauses)) => {
                    println!("chaos {spec:?}: epoch={epoch} clauses={clauses}")
                }
                Err(e) => {
                    eprintln!("chaos {spec:?} failed: {e}");
                    chaos_errors += 1;
                }
            }
        }
        let tallies: Vec<Tally> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        *sp_sync::lock_recover(&stop_churn) = true;
        let churn_result = churn_handle.map(|h| h.join().unwrap());
        (tallies, churn_result, chaos_errors)
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut total = Tally::default();
    for t in &tallies {
        total.queries += t.queries;
        total.delivered += t.delivered;
        total.traced += t.traced;
        total.errors += t.errors;
        total.epoch_regressions += t.epoch_regressions;
        total.max_epoch = total.max_epoch.max(t.max_epoch);
    }
    let (churn_batches, churn_errors) = churn_result.unwrap_or((0, 0));
    total.errors += churn_errors + chaos_errors;

    let stats = probe.stats().unwrap_or_else(|e| {
        eprintln!("sp-serve-load: STATS failed: {e}");
        std::process::exit(1);
    });
    let (final_epoch, _, _) = probe.info().unwrap_or((0, 0, 0));

    println!(
        "ran {} queries over {} clients in {elapsed:.2}s ({:.0} q/s), \
         delivered {} ({:.1}%), traced {}, churn batches {churn_batches}, \
         final epoch {final_epoch}",
        total.queries,
        args.clients.max(1),
        total.queries as f64 / elapsed.max(1e-9),
        total.delivered,
        100.0 * total.delivered as f64 / (total.queries.max(1)) as f64,
        total.traced,
    );
    println!(
        "server stats: queries={} delivered={} traced={} protocol_errors={} \
         move_batches={} p50={:.1}us p95={:.1}us p99={:.1}us",
        stats.stats.queries,
        stats.stats.delivered,
        stats.stats.traced,
        stats.stats.protocol_errors,
        stats.stats.move_batches,
        stats.stats.latency_p50 * 1e6,
        stats.stats.latency_p95 * 1e6,
        stats.stats.latency_p99 * 1e6,
    );

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            failed = true;
        }
    };
    check(total.errors == 0, "no client, churn or chaos errors");
    check(
        total.epoch_regressions == 0,
        "per-connection answer epochs never regress",
    );
    check(
        total.max_epoch <= final_epoch,
        "no answer epoch exceeds the service epoch",
    );
    check(
        stats.stats.queries == total.queries,
        "server query count matches the client tally",
    );
    check(
        stats.stats.delivered == total.delivered,
        "server delivered count matches the client tally",
    );
    check(
        stats.stats.traced == total.traced,
        "server traced count matches the client tally",
    );
    check(
        stats.stats.protocol_errors == 0,
        "no protocol errors on a clean run",
    );
    check(
        stats.stats.move_batches == churn_batches,
        "server move-batch count matches the churn tally",
    );
    check(
        stats.stats.latency_count == total.queries,
        "server latency count matches the client query tally",
    );
    check(
        stats.stats.latency_p50 <= stats.stats.latency_p95
            && stats.stats.latency_p95 <= stats.stats.latency_p99,
        "server latency percentiles are ordered p50 <= p95 <= p99",
    );

    if args.shutdown || args.spawn {
        match probe.shutdown() {
            Ok(epoch) => println!("shutdown acknowledged at epoch {epoch}"),
            Err(e) => {
                eprintln!("CHECK FAILED: shutdown: {e}");
                failed = true;
            }
        }
    }
    if let Some(mut child) = child {
        match child.wait() {
            Ok(status) if status.success() => println!("sp-served exited cleanly"),
            Ok(status) => {
                eprintln!("CHECK FAILED: sp-served exited with {status}");
                failed = true;
            }
            Err(e) => {
                eprintln!("CHECK FAILED: waiting for sp-served: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("all checks passed");
}
