//! Subcommand implementations.

use crate::flags::Flags;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_core::{adapt_im, asti, ateuc, eta_of_fraction, AdaptImParams, AstiParams};
use smin_diffusion::{InfluenceOracle, LoggingOracle, Model, Realization, RealizationOracle};
use smin_graph::components::weakly_connected_components;
use smin_graph::degree::{degree_distribution, log_log_slope, DegreeKind};
use smin_graph::generators::GeneratorSpec;
use smin_graph::{io, store, Graph, WeightModel};

/// Loads a graph of either supported format. Dispatch is by content
/// sniffing (`io::load_auto`), so `.smg` snapshots and text edge lists both
/// load regardless of what the file is named.
fn load_graph(path: &str) -> Result<Graph, String> {
    io::load_auto(path, 1.0).map_err(|e| format!("{path}: {e}"))
}

/// Saves a graph by extension: `.smg` = CSR snapshot, anything else = text
/// edge list.
fn save_graph(g: &Graph, path: &str) -> Result<(), String> {
    if path.ends_with(".smg") {
        store::write_smg_path(g, path).map_err(|e| format!("{path}: {e}"))
    } else {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        io::write_edge_list(g, std::io::BufWriter::new(file)).map_err(|e| format!("{path}: {e}"))
    }
}

/// `asm generate`
pub fn generate(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "kind", "n", "m", "gamma", "weights", "seed", "out", "attach", "k", "beta",
        ],
    )?;
    let kind = f.require("kind")?;
    let n: usize = f.get_parsed("n")?.ok_or("missing required --n")?;
    let seed: u64 = f.get_or("seed", 42)?;
    let out = f.require("out")?;
    let weights = f.get_or("weights", WeightModel::WeightedCascade)?;
    let mut rng = SmallRng::seed_from_u64(seed);

    let spec = match kind {
        "chung-lu" => GeneratorSpec::ChungLu {
            m: f.get_or("m", n * 5)?,
            gamma: f.get_or("gamma", 2.1)?,
        },
        "er" => GeneratorSpec::ErdosRenyi {
            m: f.get_or("m", n * 5)?,
        },
        "ba" => GeneratorSpec::BarabasiAlbert {
            attach: f.get_or("attach", 4)?,
        },
        "ws" => GeneratorSpec::WattsStrogatz {
            k: f.get_or("k", 6)?,
            beta: f.get_or("beta", 0.1)?,
        },
        other => {
            return Err(format!(
                "unknown generator '{other}' (chung-lu | ba | er | ws)"
            ))
        }
    };
    let g = spec
        .generate(n, weights, &mut rng)
        .map_err(|e| format!("{kind}: {e}"))?;
    save_graph(&g, out)?;
    out!("wrote {out}: {} nodes, {} directed edges", g.n(), g.m());
    Ok(())
}

/// `asm stats`
pub fn stats(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let path = f.positional.first().ok_or("usage: asm stats <GRAPH>")?;
    let g = load_graph(path)?;
    let wcc = weakly_connected_components(&g);
    let dist = degree_distribution(&g, DegreeKind::Total);
    let max_deg = dist.last().map(|&(d, _)| d).unwrap_or(0);
    out!("nodes:            {}", g.n());
    out!("directed edges:   {}", g.m());
    out!(
        "avg out-degree:   {:.3}",
        g.m() as f64 / g.n().max(1) as f64
    );
    out!("max total degree: {max_deg}");
    out!("wcc count:        {}", wcc.count);
    out!(
        "largest wcc:      {} ({:.1}% of nodes)",
        wcc.largest,
        100.0 * wcc.largest as f64 / g.n().max(1) as f64
    );
    if let Some(slope) = log_log_slope(&dist) {
        out!("log-log slope:    {slope:.2}");
    }
    out!("valid LT:         {}", g.is_valid_lt());
    let bytes = g.memory_bytes();
    out!(
        "memory:           {:.1} MiB ({bytes} bytes)",
        bytes as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

/// `asm run`
pub fn run(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "graph", "algo", "model", "eps", "seed", "worlds", "threads", "audit", "eta",
            "eta-frac", "batch",
        ],
    )?;
    let g = load_graph(f.require("graph")?)?;
    let algo = f.require("algo")?;
    let model: Model = f
        .get("model")
        .unwrap_or("ic")
        .parse()
        .map_err(|e: String| e)?;
    let eps: f64 = f.get_or("eps", 0.5)?;
    let seed: u64 = f.get_or("seed", 42)?;
    let worlds: usize = f.get_or("worlds", 1)?;
    if worlds == 0 {
        return Err("--worlds must be at least 1".into());
    }
    // Sketch-generation worker threads; selections are identical for every
    // value, so this only changes wall-clock time. Default: SMIN_THREADS
    // env var, then available parallelism.
    let threads: Option<usize> = f.get_parsed("threads")?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".into());
    }
    if threads.is_some() && algo != "asti" {
        return Err(format!(
            "--threads only applies to --algo asti ({algo} runs the shared sampler on one thread)"
        ));
    }
    // Observation audit trail: record every select→observe interaction in
    // diffusion::log's line format. One file per world (`PATH` for world 1,
    // `PATH.wK` for world K > 1), replayable through `ReplayOracle`.
    let audit: Option<&str> = f.get("audit");
    if audit.is_some() && algo == "ateuc" {
        return Err("--audit records adaptive campaigns (asti | adaptim), not ateuc".into());
    }
    let eta = match (
        f.get_parsed::<usize>("eta")?,
        f.get_parsed::<f64>("eta-frac")?,
    ) {
        (Some(e), None) => e,
        (None, Some(frac)) => {
            eta_of_fraction(g.n(), frac).map_err(|e| format!("--eta-frac {e}"))?
        }
        (Some(_), Some(_)) => return Err("give --eta or --eta-frac, not both".into()),
        (None, None) => return Err("missing --eta or --eta-frac".into()),
    };
    out!(
        "graph: n = {}, m = {}; target η = {eta}; model {model}; {worlds} world(s)",
        g.n(),
        g.m()
    );

    match algo {
        "asti" | "adaptim" => {
            let batch: usize = f.get_or("batch", 1)?;
            let mut total_seeds = 0usize;
            let mut total_time = 0.0f64;
            for w in 0..worlds {
                let mut world_rng = SmallRng::seed_from_u64(seed.wrapping_add(1000 + w as u64));
                let phi = Realization::sample(&g, model, &mut world_rng);
                let mut oracle = LoggingOracle::new(RealizationOracle::new(&g, phi), g.n());
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(w as u64));
                let started = std::time::Instant::now();
                let report = if algo == "asti" {
                    let mut params = AstiParams::batched(eps, batch);
                    params.trim.threads = threads;
                    asti(&g, model, eta, &params, &mut oracle, &mut rng)
                } else {
                    adapt_im(
                        &g,
                        model,
                        eta,
                        &AdaptImParams::with_eps(eps),
                        &mut oracle,
                        &mut rng,
                    )
                }
                .map_err(|e| e.to_string())?;
                let secs = started.elapsed().as_secs_f64();
                if let Some(path) = audit {
                    let path = if w == 0 {
                        path.to_string()
                    } else {
                        format!("{path}.w{}", w + 1)
                    };
                    std::fs::write(&path, oracle.log().to_text())
                        .map_err(|e| format!("{path}: {e}"))?;
                    out!("audit log -> {path} ({} steps)", oracle.log().steps.len());
                }
                out!(
                    "world {:>2}: {} seeds, {} rounds, spread {}, {:.3}s{}",
                    w + 1,
                    report.num_seeds(),
                    report.num_rounds(),
                    report.total_activated,
                    secs,
                    if report.reached {
                        ""
                    } else {
                        "  [DID NOT REACH η]"
                    }
                );
                total_seeds += report.num_seeds();
                total_time += secs;
            }
            out!(
                "mean: {:.1} seeds, {:.3}s",
                total_seeds as f64 / worlds as f64,
                total_time / worlds as f64
            );
        }
        "ateuc" => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let started = std::time::Instant::now();
            let out = ateuc(&g, model, eta, &mut rng).map_err(|e| e.to_string())?;
            let secs = started.elapsed().as_secs_f64();
            out!(
                "selected |S| = {} in {:.3}s (certified E[I(S)] ≥ η: {})",
                out.seeds.len(),
                secs,
                out.certified
            );
            // evaluate on sampled worlds
            let mut misses = 0usize;
            for w in 0..worlds {
                let mut world_rng = SmallRng::seed_from_u64(seed.wrapping_add(1000 + w as u64));
                let phi = Realization::sample(&g, model, &mut world_rng);
                let mut oracle = RealizationOracle::new(&g, phi);
                oracle.observe(&out.seeds);
                let spread = oracle.num_active();
                if spread < eta {
                    misses += 1;
                }
                out!(
                    "world {:>2}: spread {spread}{}",
                    w + 1,
                    if spread < eta { "  [MISS]" } else { "" }
                );
            }
            out!("missed η on {misses}/{worlds} worlds");
        }
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (asti | adaptim | ateuc)"
            ))
        }
    }
    Ok(())
}

/// `asm serve` — the long-running seed-selection service (see
/// `smin-service`). Blocks forever; graphs are registered and selections
/// requested over the HTTP API.
pub fn serve(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "addr",
            "threads",
            "graphs-dir",
            "cache",
            "state-dir",
            "max-pending",
            "trace-log",
        ],
    )?;
    let addr = f.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let workers: usize = match f.get_parsed("threads")? {
        Some(0) => return Err("--threads must be at least 1".into()),
        Some(t) => t,
        None => smin_sampling::resolve_threads(None),
    };
    let graphs_dir = match f.get("graphs-dir") {
        Some(dir) => {
            let path = std::path::PathBuf::from(dir);
            if !path.is_dir() {
                return Err(format!("--graphs-dir {dir}: not a directory"));
            }
            Some(path)
        }
        None => None,
    };
    let cache_capacity: usize = f.get_or("cache", 1024)?;
    // Durable registry root: created on first use, restored on every boot.
    let state_dir = f.get("state-dir").map(std::path::PathBuf::from);
    let max_pending: usize = f.get_or("max-pending", 1024)?;
    // Structured observability: one JSON line per request, written off the
    // request path by a dedicated log thread.
    let trace_log = f.get("trace-log").map(std::path::PathBuf::from);

    let config = smin_service::ServerConfig {
        addr,
        workers,
        graphs_dir: graphs_dir.clone(),
        state_dir: state_dir.clone(),
        cache_capacity,
        max_pending,
        trace_log: trace_log.clone(),
        ..smin_service::ServerConfig::default()
    };
    let server =
        smin_service::Server::bind(&config).map_err(|e| format!("{}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    out!(
        "asm serve: listening on http://{addr} ({workers} workers, graphs dir: {}, state dir: {}, cache: {cache_capacity}, max pending: {max_pending}, trace log: {})",
        graphs_dir
            .as_deref()
            .map_or("disabled".to_string(), |p| p.display().to_string()),
        state_dir
            .as_deref()
            .map_or("none".to_string(), |p| p.display().to_string()),
        trace_log
            .as_deref()
            .map_or("off".to_string(), |p| p.display().to_string()),
    );
    out!("endpoints: GET /healthz · GET /metrics · GET/POST /v1/graphs · DELETE /v1/graphs/{{id}} · POST /v1/select · POST /v1/select-batch");
    static NEVER_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    server.run(&NEVER_STOP).map_err(|e| e.to_string())
}

/// `asm lint` — the workspace determinism/robustness static-analysis pass
/// (see `smin-analyze`). Exit is non-zero on any finding.
pub fn lint(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["root", "format"])?;
    let root = std::path::PathBuf::from(f.get("root").unwrap_or("."));
    if !root.is_dir() {
        return Err(format!("--root {}: not a directory", root.display()));
    }
    let format = f.get("format").unwrap_or("human");
    if !matches!(format, "human" | "json") {
        return Err(format!("--format {format}: expected 'human' or 'json'"));
    }
    let outcome = smin_analyze::run(&root)?;

    // Informational: beside the JSON report it goes to stderr, so that the
    // report holds the findings alone.
    let counts =
        smin_analyze::line_count_line(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    match format {
        "json" => {
            crate::stdout(format_args!("{}", outcome.json()));
            eprint!("{counts}");
        }
        _ => crate::stdout(format_args!("{}{counts}", outcome.human())),
    }
    if outcome.total() > 0 {
        return Err(format!(
            "{} lint finding(s); fix them or annotate with `// smin-lint: allow(<rule>) -- <why>`",
            outcome.total()
        ));
    }
    Ok(())
}

/// `asm pack` — encode any loadable graph as a `.smg` CSR snapshot.
pub fn pack(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [input, output] = f.positional.as_slice() else {
        return Err("usage: asm pack <GRAPH> <OUT.smg>".into());
    };
    let g = load_graph(input)?;
    store::write_smg_path(&g, output).map_err(|e| format!("{output}: {e}"))?;
    let checksum = store::content_checksum(&g);
    out!(
        "packed {input} -> {output}: {} nodes, {} edges, checksum {checksum:016x}",
        g.n(),
        g.m()
    );
    Ok(())
}

/// `asm inspect` — dump a `.smg` snapshot header without decoding columns.
pub fn inspect(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [path] = f.positional.as_slice() else {
        return Err("usage: asm inspect <FILE.smg>".into());
    };
    let h = store::read_smg_header_path(path).map_err(|e| format!("{path}: {e}"))?;
    let actual = std::fs::metadata(path).map(|m| m.len()).ok();
    out!("{path}: smg snapshot");
    out!("  version:    {}", h.version);
    out!("  flags:      {:#010x}", h.flags);
    out!("  nodes:      {}", h.n);
    out!("  edges:      {}", h.m);
    out!("  crc off:    {:#010x}", h.crc_off);
    out!("  crc dst:    {:#010x}", h.crc_dst);
    out!("  crc prob:   {:#010x}", h.crc_prob);
    out!("  crc header: {:#010x}", h.crc_header);
    out!("  checksum:   {:016x}", h.content_checksum());
    match actual {
        Some(len) if len == h.file_len() => out!("  file size:  {len} bytes (matches header)"),
        Some(len) => out!(
            "  file size:  {len} bytes (HEADER SAYS {} — truncated or padded!)",
            h.file_len()
        ),
        None => out!("  file size:  unknown"),
    }
    Ok(())
}

/// `asm convert`
pub fn convert(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [input, output] = f.positional.as_slice() else {
        return Err("usage: asm convert <IN> <OUT>".into());
    };
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    out!(
        "converted {input} -> {output} ({} nodes, {} edges)",
        g.n(),
        g.m()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_model_parsing() {
        let parse = |spec: &str| spec.parse::<WeightModel>();
        assert_eq!(parse("wc").unwrap(), WeightModel::WeightedCascade);
        assert_eq!(parse("uniform:0.1").unwrap(), WeightModel::Uniform(0.1));
        assert_eq!(parse("uniform:1").unwrap(), WeightModel::Uniform(1.0));
        assert_eq!(parse("tri").unwrap(), WeightModel::Trivalency);
        for bad in [
            "bogus",
            "uniform:x",
            "uniform:2",
            "uniform:0",
            "uniform:NaN",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn generate_stats_run_roundtrip() {
        let dir = std::env::temp_dir().join("smin_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.smg");
        let path = path.to_str().unwrap().to_string();

        let args: Vec<String> = [
            "--kind", "chung-lu", "--n", "400", "--m", "1600", "--seed", "3", "--out", &path,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        generate(&args).unwrap();

        stats(std::slice::from_ref(&path)).unwrap();

        let run_args: Vec<String> = [
            "--graph",
            &path,
            "--algo",
            "asti",
            "--eta",
            "40",
            "--worlds",
            "2",
            "--seed",
            "1",
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&run_args).unwrap();

        let txt = dir.join("g.txt");
        let txt = txt.to_str().unwrap().to_string();
        convert(&[path.clone(), txt.clone()]).unwrap();
        let g1 = load_graph(&path).unwrap();
        let g2 = load_graph(&txt).unwrap();
        assert_eq!(g1.m(), g2.m());
    }

    #[test]
    fn run_audit_writes_replayable_logs() {
        let dir = std::env::temp_dir().join("smin_cli_audit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.smg");
        let path = path.to_str().unwrap().to_string();
        let to_args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        generate(&to_args(&[
            "--kind", "er", "--n", "80", "--m", "240", "--out", &path,
        ]))
        .unwrap();

        // Each adaptive algorithm runs twice at one seed: world 1 at the
        // given path, world 2 with the .w2 suffix. Every log must parse
        // back through the diffusion::log line format, reach η, and match
        // its rerun byte for byte.
        for algo in ["asti", "adaptim"] {
            let mut texts = Vec::new();
            for rerun in ["a", "b"] {
                let audit = dir.join(format!("{algo}_{rerun}.log"));
                let audit = audit.to_str().unwrap().to_string();
                run(&to_args(&[
                    "--graph", &path, "--algo", algo, "--eta", "20", "--worlds", "2", "--seed",
                    "5", "--audit", &audit,
                ]))
                .unwrap();
                for p in [audit.clone(), format!("{audit}.w2")] {
                    let text = std::fs::read_to_string(&p).unwrap();
                    let log = smin_diffusion::ObservationLog::from_text(&text).unwrap();
                    assert_eq!(log.n, 80, "{p}: wrong node count header");
                    assert!(!log.steps.is_empty(), "{p}: no steps recorded");
                    assert!(log.total_activated() >= 20, "{p}: campaign did not reach η");
                    assert_eq!(log.to_text(), text, "{p}: round-trip not identity");
                    texts.push(text);
                }
            }
            assert_eq!(texts[..2], texts[2..], "{algo}: rerun at one seed diverged");
        }

        // The non-adaptive baseline runs, but --audit is meaningless for it.
        run(&to_args(&[
            "--graph", &path, "--algo", "ateuc", "--eta", "20", "--worlds", "2", "--seed", "5",
        ]))
        .unwrap();
        let audit = dir.join("ateuc.log");
        let audit = audit.to_str().unwrap();
        let bad = to_args(&[
            "--graph", &path, "--algo", "ateuc", "--eta", "20", "--audit", audit,
        ]);
        assert!(run(&bad).unwrap_err().contains("--audit"));
    }

    #[test]
    fn text_output_reports_a_failed_write() {
        // /dev/full opens and then fails every write with ENOSPC; the text
        // writer buffers, so the failure only shows when it flushes.
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let g = io::read_edge_list("0 1 0.5\n1 2 0.25\n".as_bytes())
            .unwrap()
            .into_graph(true, 1.0)
            .unwrap();
        let err = save_graph(&g, "/dev/full").unwrap_err();
        assert!(err.starts_with("/dev/full: "), "got: {err}");
    }

    #[test]
    fn pack_and_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("smin_cli_pack");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt");
        std::fs::write(&txt, "0 1 0.5\n1 2 0.25\n2 0 1.0\n").unwrap();
        let txt = txt.to_str().unwrap().to_string();
        let smg = dir.join("g.smg");
        let smg = smg.to_str().unwrap().to_string();

        pack(&[txt.clone(), smg.clone()]).unwrap();
        inspect(std::slice::from_ref(&smg)).unwrap();

        // Packing twice produces byte-identical snapshots.
        let again = dir.join("g2.smg");
        let again = again.to_str().unwrap().to_string();
        pack(&[txt.clone(), again.clone()]).unwrap();
        assert_eq!(
            std::fs::read(&smg).unwrap(),
            std::fs::read(&again).unwrap(),
            "pack must be deterministic"
        );

        // The snapshot loads back bit-equal through the content sniffer.
        let g1 = load_graph(&txt).unwrap();
        let g2 = load_graph(&smg).unwrap();
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );

        // inspect rejects non-snapshots with a useful error.
        let err = inspect(std::slice::from_ref(&txt)).unwrap_err();
        assert!(err.contains("magic"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_usage_errors() {
        assert!(pack(&[]).unwrap_err().contains("usage"));
        assert!(inspect(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let to_args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let err = serve(&to_args(&["--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads"), "got: {err}");
        let err = serve(&to_args(&["--graphs-dir", "/no/such/dir/xyz"])).unwrap_err();
        assert!(err.contains("--graphs-dir"), "got: {err}");
        let err = serve(&to_args(&["--addr", "definitely:not:an:addr"])).unwrap_err();
        assert!(err.contains("definitely"), "got: {err}");
        let err = serve(&to_args(&["--transport", "threaded"])).unwrap_err();
        assert!(err.contains("--transport"), "got: {err}");
        let err = serve(&to_args(&[
            "--addr",
            "127.0.0.1:0",
            "--trace-log",
            "/no/such/dir/xyz/trace.jsonl",
        ]))
        .unwrap_err();
        assert!(err.contains("trace log"), "got: {err}");
    }

    #[test]
    fn run_rejects_unknown_flags() {
        // A misspelled --model must not silently run the IC default.
        let args: Vec<String> = [
            "--graph", "g.txt", "--algo", "asti", "--eta", "10", "--modle", "lt",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--modle"), "got: {err}");
    }

    #[test]
    fn run_rejects_zero_threads() {
        let dir = std::env::temp_dir().join("smin_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g3.smg");
        let path = path.to_str().unwrap().to_string();
        let args: Vec<String> = ["--kind", "er", "--n", "50", "--m", "100", "--out", &path]
            .iter()
            .map(|s| s.to_string())
            .collect();
        generate(&args).unwrap();
        let bad: Vec<String> = [
            "--graph",
            &path,
            "--algo",
            "asti",
            "--eta",
            "5",
            "--threads",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&bad).unwrap_err();
        assert!(err.contains("--threads"), "got: {err}");
    }

    #[test]
    fn run_rejects_zero_worlds() {
        let dir = std::env::temp_dir().join("smin_cli_zero_worlds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.smg");
        let path = path.to_str().unwrap();
        let to_args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        generate(&to_args(&[
            "--kind", "er", "--n", "50", "--m", "100", "--out", path,
        ]))
        .unwrap();
        let bad = [
            "--graph", path, "--algo", "asti", "--eta", "5", "--worlds", "0",
        ];
        let err = run(&to_args(&bad)).unwrap_err();
        assert!(err.contains("--worlds"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_conflicting_eta() {
        let dir = std::env::temp_dir().join("smin_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g2.smg");
        let path = path.to_str().unwrap().to_string();
        let args: Vec<String> = ["--kind", "er", "--n", "50", "--m", "100", "--out", &path]
            .iter()
            .map(|s| s.to_string())
            .collect();
        generate(&args).unwrap();
        let bad: Vec<String> = [
            "--graph",
            &path,
            "--algo",
            "asti",
            "--eta",
            "5",
            "--eta-frac",
            "0.1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(run(&bad).is_err());
    }

    /// Every precondition spec the service answers with 400 is an `Err`
    /// here too, never a generator panic, and writes no file; so is a
    /// Chung–Lu spec whose rejection sampling stalls.
    #[test]
    fn generate_rejects_what_the_generators_assert() {
        let dir = std::env::temp_dir().join("smin_cli_generate_preconditions");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("never.smg");
        let path = path.to_str().unwrap().to_string();
        let cases: &[(&[&str], &str)] = &[
            (&["er", "--n", "1"], "'n' must be at least 2"),
            (&["er", "--n", "3"], "'m' = 15 exceeds"),
            (&["er", "--n", "3", "--m", "100"], "'m' = 100 exceeds"),
            (&["chung-lu", "--n", "1"], "'n' must be at least 2"),
            (&["chung-lu", "--n", "4", "--m", "13"], "'m' = 13 exceeds"),
            (
                &["chung-lu", "--n", "10", "--m", "200"],
                "'m' = 200 exceeds",
            ),
            (&["chung-lu", "--n", "50", "--gamma", "1.0"], "'gamma'"),
            (&["chung-lu", "--n", "50", "--gamma", "-3"], "'gamma'"),
            // Passes every check, then stalls the rejection sampling.
            (
                &["chung-lu", "--n", "100", "--m", "5000", "--gamma", "1.01"],
                "too dense for Chung–Lu",
            ),
            (&["ba", "--n", "3"], "'attach'"),
            (&["ba", "--n", "30", "--attach", "0"], "'attach'"),
            (&["ba", "--n", "5", "--attach", "5"], "'attach'"),
            (&["ba", "--n", "5", "--attach", "9"], "'attach'"),
            (&["ws", "--n", "5"], "'n' must exceed 'k'"),
            (&["ws", "--n", "5", "--k", "7"], "'k'"),
            (&["ws", "--n", "30", "--k", "3"], "'k'"),
            (&["ws", "--n", "30", "--k", "0"], "'k'"),
            (&["ws", "--n", "30", "--beta", "1.5"], "'beta'"),
            (&["ws", "--n", "30", "--beta", "-0.1"], "'beta'"),
            (&["ba", "--n", "30", "--weights", "uniform:2"], "(0, 1]"),
            (&["ba", "--n", "30", "--weights", "uniform:0"], "(0, 1]"),
            (&["ba", "--n", "30", "--weights", "uniform:NaN"], "(0, 1]"),
        ];
        for (spec, needle) in cases {
            let args: Vec<String> = ["--kind"]
                .iter()
                .chain(spec.iter())
                .chain(["--out", path.as_str()].iter())
                .map(|s| s.to_string())
                .collect();
            let err = generate(&args).expect_err(&format!("{spec:?} must be an error"));
            assert!(
                err.contains(needle),
                "{spec:?}: expected {needle:?} in {err}"
            );
        }
        assert!(!std::path::Path::new(&path).exists());
    }

    /// A fraction outside (0, 1] is an error naming the range, never a
    /// silent η = 1.
    #[test]
    fn run_rejects_eta_frac_outside_the_unit_interval() {
        let dir = std::env::temp_dir().join("smin_cli_eta_frac");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.smg");
        let path = path.to_str().unwrap().to_string();
        let to_args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        generate(&to_args(&[
            "--kind", "er", "--n", "50", "--m", "100", "--out", &path,
        ]))
        .unwrap();
        for frac in ["-0.5", "0", "NaN", "1.5"] {
            let err = run(&to_args(&[
                "--graph",
                &path,
                "--algo",
                "asti",
                "--eta-frac",
                frac,
            ]))
            .expect_err(frac);
            assert!(
                err.contains("--eta-frac must lie in (0, 1]"),
                "{frac}: {err}"
            );
        }
    }
}
