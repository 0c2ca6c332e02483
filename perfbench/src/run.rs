//! One benchmark run: generate the workload's inputs from the seed, hand
//! them to child processes that do the program's work, check every output,
//! and print the metrics.

use crate::child::{check_partition, Checks};
use crate::inputs::{Workload, SERVE_PARAMS};
use crate::stats::{median, middle_mean, percentile, relative_spread, tail_percentile};
use crate::trace::Tracer;
use crate::util::{num, nums, Obj};
use crate::{host, serve};
use parcom_graph::{Graph, Partition};
use parcom_obs::json::{self, Value};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Reported metric: value, unit, sample count, the samples' quartile
/// distance as a share of their median, and threads used.
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub spread: f64,
    pub threads: usize,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Outcome {
    /// The metrics of the final JSON line.
    pub metrics: Vec<Row>,
    /// Further figures printed in the table only.
    pub extra: Vec<Row>,
    pub checks: Checks,
}

impl Outcome {
    fn row(name: &str, value: f64, unit: &'static str, samples: &[f64], threads: usize) -> Row {
        Row {
            name: name.into(),
            value,
            unit,
            samples: samples.len(),
            spread: relative_spread(samples).unwrap_or(f64::NAN),
            threads,
        }
    }

    /// A metric of the result line; `samples` are what `value` summarizes.
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: &[f64], threads: usize) {
        self.metrics
            .push(Self::row(name, value, unit, samples, threads));
    }

    /// A figure for the table only.
    fn note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: &[f64],
        threads: usize,
    ) {
        self.extra
            .push(Self::row(name, value, unit, samples, threads));
    }

    fn absorb(&mut self, v: &Value) {
        self.checks.attempted += v.get("checks").and_then(Value::as_u64).unwrap_or(0);
        if let Some(failures) = v.get("failures").and_then(Value::as_array) {
            for f in failures {
                self.checks
                    .failed
                    .push(f.as_str().unwrap_or("?").to_string());
            }
        }
    }
}

/// The run's scratch directory inside the checkout; removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// What an end-to-end timing reports: the mean of its middle half.
fn mid(v: &[f64]) -> f64 {
    middle_mean(v).unwrap_or(f64::NAN)
}

fn child_command(task: &str, args: &[String]) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child").arg(task).args(args).stdin(Stdio::null());
    Ok(cmd)
}

/// Runs a child task to completion and parses its result line.
fn child(task: &str, args: &[String]) -> Result<Value, String> {
    let out = child_command(task, args)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child `{task}`: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child `{task}` failed ({})", out.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| format!("child `{task}` printed no result: {e}"))
}

/// Spawns a `ready` child and times spawn to its readiness line.
fn restart_to_ready(input: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let mut proc = child_command("ready", &[format!("input={}", input.display())])?
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    let stdout = proc.stdout.take().ok_or("no child stdout")?;
    let mut reader = BufReader::new(stdout);
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    std::io::copy(&mut reader, &mut std::io::sink()).map_err(|e| e.to_string())?;
    let status = proc.wait().map_err(|e| e.to_string())?;
    if line.trim() != "ready" || !status.success() {
        return Err(format!("ready child failed ({status})"));
    }
    Ok(elapsed)
}

/// Generates an instance from the seed and writes it as METIS text plus
/// the planted partition; returns both in memory and the two paths.
fn instance(
    params: parcom_generators::LfrParams,
    seed: u64,
    dir: &Path,
    stem: &str,
) -> Result<(Graph, Partition, PathBuf, PathBuf), String> {
    let (g, truth) = parcom_generators::lfr(params, seed);
    let metis = dir.join(format!("{stem}.metis"));
    let part = dir.join(format!("{stem}.part"));
    let io = |e: parcom_io::IoError| e.to_string();
    parcom_io::write_metis(&g, &metis).map_err(io)?;
    parcom_io::write_partition(&truth, &part).map_err(io)?;
    // Nothing is timed yet: let the kernel write back every dirty page
    // (these inputs, a build that just finished) so the writeback does not
    // compete with the first timed repeats.
    let _ = Command::new("sync").status();
    Ok((g, truth, metis, part))
}

/// The workload's further instances, from seeds derived from the run's
/// (see [`Workload::instances`]): METIS text and planted partition paths.
fn more_instances(w: Workload, seed: u64, dir: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    (1..w.instances())
        .map(|i| {
            let (_, _, metis, part) =
                instance(w.params(), seed ^ (i << 48), dir, &format!("more-{i}"))?;
            Ok((metis, part))
        })
        .collect()
}

/// Comma-separated paths, rotated left by `by`: round `r` starts its
/// repeats on input `r`, so that every input gets its share even when a
/// round has time for only a few.
fn path_list(paths: &[PathBuf], by: usize) -> String {
    let mut v: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    v.rotate_left(by % paths.len().max(1));
    v.join(",")
}

/// Rounds per run. Every kind of sample is taken a share at a time in
/// each round, so that each metric's samples span the whole run: a shared
/// host's speed can drift by 10-25% over a few seconds, and a metric
/// measured in one block would carry one phase of that drift.
const ROUNDS: usize = 4;
/// Restart-to-ready samples per round of a batch run.
const RESTARTS: usize = 4;
/// Daemon boots per round of a serve run.
const BOOTS: usize = 4;
/// Graph PUTs per round of a serve run, timed on its last boot.
const PUTS: usize = 16;
/// `kill -9` and restart cycles per round of a serve run.
const CRASHES: usize = 8;

/// `lfr-plmr-text` and `web-plp-pcg`.
fn batch(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (_, _, metis, truth) = instance(w.params(), seed, dir, "input")?;
    let pcg = dir.join("input.pcg");
    let spec = w.spec();
    let text = w == Workload::LfrPlmrText;
    let input = if text { &metis } else { &pcg };
    let (mut inputs, mut truths) = (vec![input.clone()], vec![truth.clone()]);
    for (m, p) in more_instances(w, seed, dir)? {
        if text {
            inputs.push(m);
        } else {
            let out = m.with_extension("pcg");
            child(
                "convert",
                &[
                    format!("input={}", m.display()),
                    format!("out={}", out.display()),
                ],
            )?;
            inputs.push(out);
        }
        truths.push(p);
    }
    let (mut setup, mut checksums, mut peak, mut ready) = (vec![], vec![], vec![], vec![]);
    let (mut ingest, mut t2, mut t1, mut qs, mut nmis) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut nodes, mut edges) = (0.0, 0.0);
    for round in 0..ROUNDS {
        // Set-up, in a fresh process: text workload, the warm-up repeat;
        // binary workload, the convert.
        if text {
            let v = child(
                "cold",
                &[format!("input={}", metis.display()), format!("spec={spec}")],
            )?;
            setup.push(num(&v, "seconds")?);
            peak.push(num(&v, "peak_rss_mb")?);
        } else {
            let v = child(
                "convert",
                &[
                    format!("input={}", metis.display()),
                    format!("out={}", pcg.display()),
                ],
            )?;
            setup.push(num(&v, "seconds")?);
            checksums.push(
                v.get("checksum")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            );
            // Peak RSS of one cold run in a fresh process, as one `parcom
            // detect` reaches it: the text workload's warm-up is exactly that.
            let v = child(
                "cold",
                &[format!("input={}", pcg.display()), format!("spec={spec}")],
            )?;
            peak.push(num(&v, "peak_rss_mb")?);
        }
        for _ in 0..RESTARTS {
            ready.push(restart_to_ready(input)?);
        }
        let v = child(
            "measure",
            &[
                format!("input={}", path_list(&inputs, round)),
                format!("spec={spec}"),
                format!("seconds={}", seconds / ROUNDS as f64),
                format!("truth={}", path_list(&truths, round)),
                format!("floor={}", w.nmi_floor()),
                "threads=2,1".into(),
            ],
        )?;
        o.absorb(&v);
        for (all, key) in [
            (&mut ingest, "ingest"),
            (&mut t2, "detect_t2"),
            (&mut t1, "detect_t1"),
            (&mut qs, "modularity"),
            (&mut nmis, "nmi"),
        ] {
            all.extend(nums(&v, key));
        }
        (nodes, edges) = (num(&v, "nodes")?, num(&v, "edges")?);
    }
    if !text {
        o.checks
            .check(checksums.windows(2).all(|p| p[0] == p[1]), || {
                "the same text converted to different .pcg bytes".into()
            });
    }
    let rates: Vec<f64> = ingest
        .iter()
        .zip(&t2)
        .map(|(i, d)| edges / (i + d))
        .collect();
    o.put("setup_s", mid(&setup), "s", &setup, 2);
    o.put("ingest_s", mid(&ingest), "s", &ingest, 2);
    o.put("detect_s", mid(&t2), "s", &t2, 2);
    o.put("detect_t1_s", mid(&t1), "s", &t1, 1);
    o.put(
        "edges_per_s",
        edges / (mid(&ingest) + mid(&t2)),
        "edges/s",
        &rates,
        2,
    );
    o.put("modularity", med(&qs), "score", &qs, 0);
    o.put("nmi", med(&nmis), "score", &nmis, 0);
    o.put("peak_rss_mb", mid(&peak), "MiB", &peak, 2);
    o.put("recover_s", mid(&ready), "s", &ready, 2);
    o.note("nodes", nodes, "count", &[], 0);
    o.note("edges", edges, "count", &[], 0);
    Ok(o)
}

fn tail(o: &mut Outcome, name: &str, samples: &[f64], unit: &'static str, threads: usize) {
    o.note(
        &format!("{name}_p50_ms"),
        med(samples),
        unit,
        samples,
        threads,
    );
    match tail_percentile(samples.len()) {
        Some(p) => {
            let v = percentile(samples, p).unwrap_or(f64::NAN);
            o.note(&format!("{name}_p{p}_ms"), v, unit, samples, threads);
        }
        None => o.note(
            &format!("{name}_tail_ms_unreported"),
            f64::NAN,
            unit,
            samples,
            threads,
        ),
    }
}

/// Runs a session on the serve instance and checks its final partition.
fn session(
    plan: &serve::Plan,
    g: &Graph,
    truth: &Partition,
    tracer: Option<&mut Tracer>,
) -> Result<serve::Session, String> {
    let mut s = serve::run(plan, g, truth, SERVE_PARAMS.mu, tracer)?;
    match (&s.final_partition, &s.final_graph) {
        (Some(z), Some(_)) => {
            check_partition(&mut s.checks, z, truth, Workload::ServeMixed.nmi_floor());
        }
        _ => s.checks.check(false, || "no final partition".into()),
    }
    Ok(s)
}

/// Edge batches per second of the serve workload's open-loop writer: at
/// 64 ops a batch it crosses a checkpoint (32768 ops) every 5.1 s, once in
/// each round of a 30-second run (5.6 s of load).
const SERVE_RATE: f64 = 100.0;

/// Share of each serve round that measures the single-thread baseline.
const T1_SHARE: f64 = 0.25;

/// `serve-mixed`: rounds of a full session (fresh state dir, boots, PUTs,
/// load, `kill -9` and recoveries) each followed by a share of the
/// single-thread baseline.
fn serve_mixed(seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (g, truth, metis, part) = instance(SERVE_PARAMS, seed, dir, "serve")?;
    let (mut inputs, mut truths) = (vec![metis.clone()], vec![part]);
    for (m, p) in more_instances(Workload::ServeMixed, seed, dir)? {
        inputs.push(m);
        truths.push(p);
    }
    let round_seconds = seconds / ROUNDS as f64;
    let plan = serve::Plan {
        work: dir,
        metis: &metis,
        seed,
        seconds: round_seconds * (1.0 - T1_SHARE),
        rate: SERVE_RATE,
        boots: BOOTS,
        puts: PUTS,
        restarts: CRASHES,
    };
    let mut s = serve::Session::default();
    let mut t1 = Vec::new();
    for round in 0..ROUNDS {
        s.absorb(session(&plan, &g, &truth, None)?);
        // the served spec at t1, in a fresh process, taking the instances in turn
        let v = child(
            "measure",
            &[
                format!("input={}", path_list(&inputs, round)),
                format!("spec={}", crate::inputs::SERVE_SPEC),
                format!("seconds={}", round_seconds * T1_SHARE),
                format!("truth={}", path_list(&truths, round)),
                format!("floor={}", Workload::ServeMixed.nmi_floor()),
                "threads=1".into(),
            ],
        )?;
        o.absorb(&v);
        t1.extend(nums(&v, "detect_t1"));
    }
    o.checks.attempted += s.checks.attempted;
    o.checks.failed.extend(s.checks.failed.iter().cloned());
    let g = s.final_graph.as_ref().ok_or("no final graph")?;
    let z = s.final_partition.as_ref().ok_or("no final partition")?;
    let requests = (s.detect_ms.len() + s.mutate_ms.len()) as f64;
    let detect_s = mid(&s.detect_ms) / 1e3;
    o.put("setup_s", mid(&s.setup_s), "s", &s.setup_s, 2);
    o.put("ingest_s", mid(&s.put_s), "s", &s.put_s, 2);
    o.put("detect_s", detect_s, "s", &s.detect_ms, 2);
    o.put("detect_t1_s", mid(&t1), "s", &t1, 1);
    o.put(
        "edges_per_s",
        g.edge_count() as f64 / detect_s,
        "edges/s",
        &s.detect_ms,
        2,
    );
    o.put(
        "modularity",
        parcom_core::quality::modularity(g, z),
        "score",
        &[],
        2,
    );
    o.put("nmi", parcom_core::compare::nmi(z, &truth), "score", &[], 2);
    o.put("peak_rss_mb", mid(&s.peak_rss_mb), "MiB", &s.peak_rss_mb, 2);
    o.put("recover_s", mid(&s.recover_s), "s", &s.recover_s, 2);
    tail(&mut o, "detect", &s.detect_ms, "ms", 2);
    tail(&mut o, "mutate", &s.mutate_ms, "ms", 2);
    o.note("requests_per_s", requests / s.load_seconds, "req/s", &[], 2);
    o.note("load_peak_rss_mb", s.load_peak_rss_mb, "MiB", &[], 2);
    o.note("rebuilds", s.rebuilds as f64, "count", &[], 0);
    o.note("checkpoints", s.checkpoints as f64, "count", &[], 0);
    o.note("shed_429", s.shed as f64, "count", &[], 0);
    let late = percentile(&s.late_ms, 95.0).unwrap_or(f64::NAN);
    o.note("gen_late_p95_ms", late, "ms", &s.late_ms, 0);
    Ok(o)
}

/// The traced run: the in-process layer suite in a child, then a daemon
/// session (the full workload for `serve-mixed`, a short probe otherwise).
fn traced(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (_, _, metis, truth) = instance(w.params(), seed, dir, "input")?;
    let (serve_metis, serve_truth) = if w == Workload::ServeMixed {
        (metis.clone(), truth.clone())
    } else {
        let (_, _, m, t) = instance(SERVE_PARAMS, seed, dir, "probe")?;
        (m, t)
    };
    let child_trace = dir.join("layers-trace.json");
    let v = child(
        "layers",
        &[
            format!("input={}", metis.display()),
            format!("spec={}", w.spec()),
            format!("serve_input={}", serve_metis.display()),
            format!("serve_truth={}", serve_truth.display()),
            format!("seed={seed}"),
            format!("work={}", dir.display()),
            format!("trace={}", child_trace.display()),
        ],
    )?;
    o.absorb(&v);
    let layer_metrics = v
        .get("metrics")
        .and_then(Value::entries)
        .ok_or("layers printed no metrics")?;
    let mut tracer = Tracer::new();
    let session_seconds = if w == Workload::ServeMixed {
        seconds
    } else {
        seconds.min(6.0)
    };
    let session_dir = dir.join("session");
    std::fs::create_dir_all(&session_dir).map_err(|e| e.to_string())?;
    let (g, truth, metis, _) = instance(SERVE_PARAMS, seed, &session_dir, "serve")?;
    let plan = serve::Plan {
        work: &session_dir,
        metis: &metis,
        seed,
        seconds: session_seconds,
        rate: SERVE_RATE,
        boots: 1,
        puts: PUTS,
        restarts: CRASHES,
    };
    let s = session(&plan, &g, &truth, Some(&mut tracer))?;
    o.checks.attempted += s.checks.attempted;
    o.checks.failed.extend(s.checks.failed.iter().cloned());

    for (name, unit) in crate::PER_LAYER {
        let value = match *name {
            "serve.http.rtt_ms" => med(&s.rtt_ms),
            "serve.detect.inner_ms" => med(&s.inner_ms),
            "serve.detect.overhead_ms" => med(&s
                .detect_ms
                .iter()
                .zip(&s.inner_ms)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>()),
            "serve.detect.resp_bytes" => med(&s.resp_bytes),
            "serve.rebuilds" => s.rebuilds as f64,
            "serve.checkpoints" => s.checkpoints as f64,
            "serve.shed_429" => s.shed as f64,
            "load.gen_late_ms" => percentile(&s.late_ms, 95.0).unwrap_or(f64::NAN),
            _ => layer_metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_f64())
                .ok_or_else(|| format!("layer suite did not measure `{name}`"))?,
        };
        o.put(name, value, unit, &[], 0);
    }

    // Spans of both processes, written once at the end of the run.
    let traces = Path::new(crate::WORK_ROOT).join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    let child_spans = std::fs::read_to_string(&child_trace).map_err(|e| e.to_string())?;
    let file = traces.join(format!("{}-seed{seed}.json", w.name()));
    let body = Obj::new()
        .str("workload", w.name())
        .int("seed", seed)
        .raw("layers", &child_spans)
        .raw("client", &tracer.to_json())
        .done();
    std::fs::write(&file, body).map_err(|e| e.to_string())?;
    println!("spans written to {}", file.display());
    Ok(o)
}

/// Runs one workload and prints the table and the result line. Returns
/// whether every check passed.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let dir =
        Path::new(crate::WORK_ROOT).join(format!("{}-s{seed}-p{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let work = WorkDir(dir);
    println!(
        "perfbench workload={} seed={seed} seconds={seconds} trace={}",
        w.name(),
        u8::from(trace)
    );
    println!(
        "host {}",
        host::host_json(&[
            ("detect", 2),
            ("detect_t1", 1),
            ("ingest", 2),
            ("daemon", 2)
        ])
    );
    let o = match (trace, w) {
        (true, _) => traced(w, seed, seconds, &work.0)?,
        (false, Workload::ServeMixed) => serve_mixed(seed, seconds, &work.0)?,
        (false, _) => batch(w, seed, seconds, &work.0)?,
    };
    drop(work);
    let expected = if trace {
        crate::PER_LAYER
    } else {
        crate::END_TO_END
    };
    let emitted: Vec<(&str, &str)> = o
        .metrics
        .iter()
        .map(|r| (r.name.as_str(), r.unit))
        .collect();
    if emitted != expected {
        return Err(format!(
            "emitted metrics {emitted:?} differ from the declared {expected:?}"
        ));
    }
    let failed = o.checks.failed.len() as u64;
    let attempted = o.checks.attempted.max(1);
    println!(
        "{:<28} {:>16} {:<8} {:>7} {:>7} {:>7}",
        "metric", "value", "unit", "samples", "spread", "threads"
    );
    for r in o.metrics.iter().chain(&o.extra) {
        println!(
            "{:<28} {:>16.6} {:<8} {:>7} {:>7.3} {:>7}",
            r.name, r.value, r.unit, r.samples, r.spread, r.threads
        );
    }
    println!(
        "{:<28} {:>16.6} {:<8} {:>7}",
        "error_rate",
        failed as f64 / attempted as f64,
        "fraction",
        attempted
    );
    for f in &o.checks.failed {
        println!("FAILED CHECK: {f}");
    }
    let mut metrics = String::from("{");
    for (i, r) in o.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        json::write_str(&mut metrics, &r.name);
        metrics.push_str(":{\"value\":");
        json::write_f64(&mut metrics, r.value);
        metrics.push_str(",\"unit\":");
        json::write_str(&mut metrics, r.unit);
        metrics.push('}');
    }
    metrics.push('}');
    let correct = failed == 0 && o.metrics.iter().all(|r| r.value.is_finite());
    println!(
        "{}",
        Obj::new()
            .bool("correct", correct)
            .int("attempted", attempted)
            .int("failed", failed)
            .raw("metrics", &metrics)
            .done()
    );
    Ok(correct)
}
