//! `parcom-perfbench` — the repository's benchmark.
//!
//! ```text
//! parcom-perfbench --workload <lfr-plmr-text|web-plp-pcg|serve-mixed>
//!                  --seed N --seconds T --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics; traced
//! (`--trace 1`) the per-layer ones. The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; any
//! failed correctness check makes the exit code non-zero. See README.md.

mod child;
mod client;
mod host;
mod inputs;
mod layers;
mod run;
mod serve;
mod stats;
mod trace;
mod util;

use inputs::Workload;

/// Scratch space inside the checkout: per-run work dirs and span files.
pub const WORK_ROOT: &str = ".bench_work";

/// End-to-end metrics of every untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_s", "s"),
    ("detect_s", "s"),
    ("detect_t1_s", "s"),
    ("edges_per_s", "edges/s"),
    ("modularity", "score"),
    ("nmi", "score"),
    ("peak_rss_mb", "MiB"),
    ("recover_s", "s"),
];

/// Per-layer metrics of every traced run, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.metis.parse_s", "s"),
    ("io.metis.parse_s.t1", "s"),
    ("io.metis.mb_per_s", "MB/s"),
    ("io.metis.parse_speedup", "x"),
    ("graph.build_s", "s"),
    ("io.pcg.write_s", "s"),
    ("io.pcg.reopen_s", "s"),
    ("core.plm.move_s", "s"),
    ("core.plm.move_s.level0", "s"),
    ("core.plm.move_s.t1", "s"),
    ("core.plm.move_speedup", "x"),
    ("core.plm.moves", "count"),
    ("core.plm.levels", "count"),
    ("graph.coarsen_s", "s"),
    ("graph.coarsen_s.t1", "s"),
    ("graph.coarsen_speedup", "x"),
    ("graph.coarsen.merges", "count"),
    ("core.plmr.refine_s", "s"),
    ("core.plmr.refine_s.t1", "s"),
    ("core.plmr.refine_moves", "count"),
    ("graph.coloring_s", "s"),
    ("graph.coloring.colors", "count"),
    ("core.plp.propagate_s", "s"),
    ("core.plp.propagate_s.t1", "s"),
    ("core.plp.propagate_speedup", "x"),
    ("core.plp.iterations", "count"),
    ("core.plp.iterations.t1", "count"),
    ("core.plp.updates", "count"),
    ("core.plp.update_ratio", "fraction"),
    ("rayon.region_us", "us"),
    ("serve.http.rtt_ms", "ms"),
    ("serve.detect.inner_ms", "ms"),
    ("serve.detect.overhead_ms", "ms"),
    ("serve.detect.resp_bytes", "bytes"),
    ("serve.wal.append_ms", "ms"),
    ("serve.wal.bytes_per_op", "bytes/op"),
    ("serve.rebuild_s", "s"),
    ("serve.checkpoint_s", "s"),
    ("serve.rebuilds", "count"),
    ("serve.checkpoints", "count"),
    ("serve.recover_s", "s"),
    ("serve.recover.replay_ops", "count"),
    ("serve.shed_429", "count"),
    ("load.gen_late_ms", "ms"),
    ("obs.trace_overhead_frac", "fraction"),
    ("obs.unattributed_frac", "fraction"),
];

fn usage() -> ! {
    eprintln!(
        "usage: parcom-perfbench --workload <{}> --seed N --seconds T --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> &'a str {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| usage(), String::as_str)
}

fn child_task(task: &str, rest: &[String]) -> Result<String, String> {
    let kv = util::Kv::parse(rest)?;
    match task {
        "cold" => child::cold(&kv),
        "convert" => child::convert(&kv),
        "ready" => child::ready(&kv),
        "measure" => child::measure(&kv),
        "layers" => layers::layers(&kv),
        other => Err(format!("unknown child task `{other}`")),
    }
}

/// `spread FILE...`: per metric, the median over the runs whose output is
/// in the files (one run each, result on the last line) and the distance
/// between the first and third quartile as a share of it.
fn spread(files: &[String]) -> Result<(), String> {
    use parcom_obs::json::{self, Value};
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let last = text.lines().last().unwrap_or("");
        let v = json::parse(last).map_err(|e| format!("{file}: {e}"))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::entries)
            .ok_or(format!("{file}: no metrics"))?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            match table.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(value),
                None => table.push((name.clone(), vec![value])),
            }
        }
    }
    println!(
        "{:<28} {:>4} {:>16} {:>16} {:>16} {:>8}",
        "metric", "runs", "median", "q1", "q3", "spread"
    );
    for (name, values) in &table {
        let med = stats::median(values).unwrap_or(f64::NAN);
        let [q1, _, q3] = stats::quartiles(values).unwrap_or([f64::NAN; 3]);
        let s = stats::relative_spread(values).unwrap_or(f64::NAN);
        println!(
            "{name:<28} {:>4} {med:>16.6} {q1:>16.6} {q3:>16.6} {s:>8.4}",
            values.len()
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("spread") => match spread(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                1
            }
        },
        // program work in a process of its own
        Some("child") if args.len() >= 2 => match child_task(&args[1], &args[2..]) {
            Ok(result) => {
                println!("{result}");
                0
            }
            Err(e) => {
                eprintln!("perfbench child {}: {e}", args[1]);
                1
            }
        },
        // `parcom serve`, through the same library call the CLI makes
        Some("daemon") => match parcom_cli::args::Args::parse(&args[1..]) {
            Ok(a) if a.command == "serve" => match parcom_cli::commands::serve(&a) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            },
            _ => usage(),
        },
        _ => {
            let workload = Workload::parse(flag(&args, "--workload")).unwrap_or_else(|| usage());
            let seed: u64 = flag(&args, "--seed").parse().unwrap_or_else(|_| usage());
            let seconds: f64 = flag(&args, "--seconds").parse().unwrap_or_else(|_| usage());
            let trace = match flag(&args, "--trace") {
                "0" => false,
                "1" => true,
                _ => usage(),
            };
            match run::run(workload, seed, seconds, trace) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    2
                }
            }
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_obs::json::{self, Value};

    /// BENCHMARK.json at the repository root lists exactly the metrics
    /// this program emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
