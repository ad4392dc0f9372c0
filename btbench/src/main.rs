//! `btbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path btbench/Cargo.toml -- \
//!     --workload <campaign_pb10|campaign_long|serve_replay|serve_paced_udp|serve_paced_http> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The benchmark is a client of the
//! program: it times calls into the public API of the `btpub` crates,
//! reads the program's own `btpub_obs` registry around them, and checks
//! every output against the program's own reference (report digests,
//! the serve oracle). With `--trace 0` it prints every end-to-end
//! metric, each measured in the workload's own terms; with `--trace 1` it runs the workload untraced
//! and then traced, writes the per-layer ledger and the spans under
//! `.bench_out/`, and prints every per-layer metric. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Workload provenance is in `btbench/PROVENANCE.md`.

mod alloc;
mod campaign;
mod reg;
mod report;
mod serve;
mod stats;

use report::Outcome;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The default `--seed`; `PROVENANCE.md` names the held-out seed.
const DEFAULT_SEED: u64 = 1;
/// The default `--seconds`, equal to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 18;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("btbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "campaign_pb10" => campaign::run(
            campaign::Kind::Pb10,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "campaign_long" => campaign::run(
            campaign::Kind::Long,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "serve_replay" => serve::run(
            serve::Kind::Replay,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "serve_paced_udp" => serve::run(
            serve::Kind::PacedUdp,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "serve_paced_http" => serve::run(
            serve::Kind::PacedHttp,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        other => {
            eprintln!(
                "btbench: unknown workload {other:?} (campaign_pb10, campaign_long, serve_replay, serve_paced_udp, serve_paced_http)"
            );
            std::process::exit(2);
        }
    }
    for f in &out.failures {
        eprintln!("btbench: CHECK FAILED: {f}");
    }
    println!("{}", out.json_line(args.trace));
}
