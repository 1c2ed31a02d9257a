//! `asm` — command-line front end for the seedmin stack.
//!
//! ```text
//! asm generate --kind chung-lu --n 10000 --m 50000 --out g.smg
//! asm stats g.smg
//! asm run --graph g.smg --algo asti --eta-frac 0.05 --model ic --worlds 5
//! asm convert g.smg g.txt
//! ```

#![forbid(unsafe_code)]

/// `println!` for every command's output, through [`stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod bench_check;
mod commands;
mod flags;

use std::io::Write;
use std::process::ExitCode;

/// Writes `args` to stdout, the one writer of every command's output. A
/// reader that went away (`asm stats g.smg | head -1`) ends the process
/// with exit 0 and nothing more printed; any other failure is exit 1.
fn stdout(args: std::fmt::Arguments) {
    // Unit tests run the commands in-process, where the harness captures
    // `print!` and nothing else.
    if cfg!(test) {
        print!("{args}");
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: stdout: {e}");
            std::process::exit(1);
        }
    }
}

const USAGE: &str = "\
asm — adaptive seed minimization toolkit

USAGE:
  asm generate --kind <chung-lu|ba|er|ws> --n <N> [--m <M>] [--gamma F]
               [--attach A] [--k K] [--beta F]
               [--weights <wc|uniform:P|tri>] [--seed N] --out <FILE>
  asm stats <GRAPH>
  asm run --graph <GRAPH> --algo <asti|adaptim|ateuc> [--batch B]
          (--eta N | --eta-frac F) [--model ic|lt] [--eps F] [--seed N]
          [--worlds K] [--threads T] [--audit FILE]
  asm serve [--addr HOST:PORT] [--graphs-dir DIR] [--state-dir DIR]
            [--threads T] [--cache N] [--max-pending N] [--trace-log FILE]
  asm lint [--root DIR] [--format human|json]
  asm bench-check --baseline FILE --current FILE [--tol F]
  asm pack <GRAPH> <OUT.smg>        # encode as a binary CSR snapshot
  asm inspect <FILE.smg>            # dump a snapshot header
  asm convert <IN> <OUT>            # re-encode by output extension

GRAPH inputs are content-sniffed: '.smg' CSR snapshots and text edge lists
(`u v [p]` per line, '#'/'%' comments, SNAP `# Nodes: N Edges: M` size
headers honored) both load regardless of extension. Outputs choose their
format by extension: '.smg' snapshot, anything else text.

pack writes the deterministic `.smg` snapshot (64-byte header + checksummed
offset/target/probability columns): the same graph always produces the same
bytes, and loading is read_exact + validation — orders of magnitude faster
than re-parsing text. inspect prints the header (version, n, m, per-section
CRCs, content checksum) without decoding the columns.

--threads controls the sketch-generation worker pool for asti (default:
SMIN_THREADS env var, then all available cores). Seed selections are
bit-identical for every thread count.

--audit FILE records the adaptive select->observe history (one 'S ... | A
...' line per round; world K > 1 goes to FILE.wK). The file replays through
ReplayOracle to reproduce the campaign without the original world.

serve starts the long-running seed-selection service: graphs register once
(POST /v1/graphs, loaded from --graphs-dir or generated) and stay cached in
memory with warm sketch-pool sessions; POST /v1/select runs TRIM / TRIM-B /
ASTI with per-request eta, model, eps, batch, seed, and POST
/v1/select-batch runs many items against one graph resolution and one warm
session. Same request body => byte-identical response, for every thread
count. The service core is an epoll readiness event loop (one poll thread
multiplexing every connection, --threads dispatch workers; Linux only). --max-pending is the admission high-water mark: queued +
running requests beyond it get a deterministic 429 (default 1024).
Requests may carry X-Deadline-Millis; a request whose budget expires
before dispatch gets a structured 504. --threads sets the worker count
(default SMIN_THREADS, then all cores); --cache bounds the
memoized-response count (default 1024, 0 disables); --trace-log appends
one JSON line per request to FILE. --state-dir makes the registry durable:
every registered graph is snapshotted to DIR/graphs/<id>.smg and indexed in
DIR/manifest.json, and a restarted server reloads all of them — same ids,
same checksum-derived tokens — with no re-registration.

bench-check gates the recorded performance trajectory: every \"median\"
leaf in the committed --baseline artifact (BENCH_coverage.json,
BENCH_select.json, BENCH_graph_load.json, BENCH_svc_load.json) must exist
at the same path in the --current run and stay within --tol fractional
headroom (default 0.25 = +25%). Missing medians fail structurally;
improvements and extra current-only metrics never fail.

lint runs the workspace determinism/robustness static analysis (smin-analyze)
over every crate: no HashMap iteration or wall-clock reads in deterministic
crates, no ambient RNG, no panics in the service request path, SAFETY
comments on unsafe, checked index narrowing. The exit code is non-zero on
any finding. Suppress a justified finding in code with
`// smin-lint: allow(<rule>) -- <why>`.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "run" => commands::run(rest),
        "serve" => commands::serve(rest),
        "lint" => commands::lint(rest),
        "bench-check" => bench_check::bench_check(rest),
        "pack" => commands::pack(rest),
        "inspect" => commands::inspect(rest),
        "convert" => commands::convert(rest),
        "--help" | "-h" | "help" => {
            out!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
