//! The traced run's in-process layer suite. Every call into a layer's
//! public functions is wrapped in a benchmark span; detector and ingest
//! runs also graft the program's own `RunReport` phase tree underneath.
//! Per-layer numbers are self times and counters read off that tree.

use crate::child::Checks;
use crate::inputs::{EdgeStream, BATCH_OPS, SERVE_PARAMS, SERVE_SPEC};
use crate::stats::median;
use crate::trace::Tracer;
use crate::util::{detector, load, Kv, Obj};
use parcom_graph::parallel::with_threads;
use parcom_graph::Graph;
use parcom_obs::{PhaseReport, Recorder, RunReport};
use parcom_serve::persist::Durability;
use parcom_serve::store::{EdgeOp, GraphEntry, GraphStore, REBUILD_BATCH};
use parcom_serve::wal::{FsyncPolicy, WalWriter};
use rayon::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Collected per-layer metrics, in emission order.
#[derive(Default)]
pub struct Layers(pub Vec<(String, f64)>);

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn phases_named<'a>(report: &'a RunReport, name: &str) -> Vec<&'a PhaseReport> {
    report
        .all_phases()
        .into_iter()
        .filter(|p| p.name == name)
        .collect()
}

fn counter_sum(report: &RunReport, phase: &str, counter: &str) -> u64 {
    phases_named(report, phase)
        .iter()
        .filter_map(|p| p.counter(counter))
        .sum()
}

/// Sum of self times of the spans of `run` named `name` (optionally only
/// those whose parent is named `parent`).
fn self_sum(t: &Tracer, run: u32, name: &str, parent: Option<&str>) -> f64 {
    let selfs = t.self_times();
    let spans = t.spans();
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.run == run && s.name == name)
        .filter(|(s, _)| match (parent, s.parent) {
            (None, _) => true,
            (Some(want), Some(p)) => spans[p].name == want,
            (Some(_), None) => false,
        })
        .map(|(_, own)| own)
        .sum()
}

/// One traced detection: the bench span, the grafted report, the run id.
struct Traced {
    run: u32,
    span_s: f64,
    report: RunReport,
}

fn traced_detect(t: &mut Tracer, g: &Graph, spec: &str, threads: usize) -> Result<Traced, String> {
    let run = t.next_run();
    let mut det = detector(spec)?;
    let name = format!("core.detect/{spec}/t{threads}");
    let ((_, report), id) = t.span(&name, |_| {
        with_threads(threads, || det.detect_with_report(g))
    });
    t.graft(id, &report);
    Ok(Traced {
        run,
        span_s: t.spans()[id].duration(),
        report,
    })
}

/// Ingest (text parse + CSR build) at t2 and t1, and `.pcg` write/reopen.
fn io_layers(t: &mut Tracer, out: &mut Layers, input: &Path, work: &Path) -> Result<Graph, String> {
    let bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len() as f64;
    let mut parse = [Vec::new(), Vec::new()];
    let mut build = Vec::new();
    let mut graph = None;
    // t2 and t1 alternate, so neither side gets all the cold repeats
    for threads in [2usize, 1, 2, 1, 2, 1] {
        t.next_run();
        let rec = Recorder::enabled();
        let (g, id) = t.span(&format!("io.metis.read/t{threads}"), |_| {
            with_threads(threads, || load(input, &rec))
        });
        let report = rec.finish("ingest");
        t.graft(id, &report);
        let wall = |name: &str| report.phase(name).map_or(f64::NAN, |p| p.wall_seconds);
        parse[2 - threads].push(wall("ingest/parse"));
        if threads == 2 {
            build.push(wall("ingest/build"));
        }
        graph = Some(g?);
    }
    let g = graph.ok_or("no ingest ran")?;
    out.put("io.metis.parse_s", med(&parse[0]));
    out.put("io.metis.parse_s.t1", med(&parse[1]));
    out.put("io.metis.mb_per_s", bytes / 1e6 / med(&parse[0]));
    out.put("io.metis.parse_speedup", med(&parse[1]) / med(&parse[0]));
    out.put("graph.build_s", med(&build));

    let pcg = work.join("layers.pcg");
    let (mut write, mut reopen) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        t.next_run();
        let (r, id) = t.span("io.pcg.write", |_| parcom_io::write_pcg(&g, None, &pcg));
        r.map_err(|e| e.to_string())?;
        write.push(t.spans()[id].duration());
        let rec = Recorder::enabled();
        let (r, id) = t.span("io.pcg.reopen", |_| load(&pcg, &rec));
        t.graft(id, &rec.finish("reopen"));
        let reopened = r?;
        if reopened.edge_count() != g.edge_count() {
            return Err("reopened .pcg lost edges".into());
        }
        reopen.push(t.spans()[id].duration());
    }
    out.put("io.pcg.write_s", med(&write));
    out.put("io.pcg.reopen_s", med(&reopen));
    Ok(g)
}

/// PLM/PLMR move, coarsen and refine phases at t2 and t1; coloring from
/// the deterministic move path; PLP's propagation kernel.
fn core_layers(
    t: &mut Tracer,
    out: &mut Layers,
    checks: &mut Checks,
    g: &Graph,
    primary: &str,
) -> Result<(), String> {
    let mut plmr = [Vec::new(), Vec::new()];
    for threads in [2usize, 1, 2] {
        plmr[2 - threads].push(traced_detect(t, g, "plmr", threads)?);
    }
    let per = |t: &Tracer, runs: &[Traced], name: &str, parent: Option<&str>| {
        med(&runs
            .iter()
            .map(|r| self_sum(t, r.run, name, parent))
            .collect::<Vec<_>>())
    };
    let move_s = per(t, &plmr[0], "move-phase", None);
    let coarsen_s = per(t, &plmr[0], "coarsen", None);
    out.put("core.plm.move_s", move_s);
    out.put(
        "core.plm.move_s.level0",
        per(t, &plmr[0], "move-phase", Some("level-0")),
    );
    out.put("core.plm.move_s.t1", per(t, &plmr[1], "move-phase", None));
    out.put(
        "core.plm.move_speedup",
        per(t, &plmr[1], "move-phase", None) / move_s,
    );
    out.put("graph.coarsen_s", coarsen_s);
    out.put("graph.coarsen_s.t1", per(t, &plmr[1], "coarsen", None));
    out.put(
        "graph.coarsen_speedup",
        per(t, &plmr[1], "coarsen", None) / coarsen_s,
    );
    out.put("core.plmr.refine_s", per(t, &plmr[0], "refine", None));
    out.put("core.plmr.refine_s.t1", per(t, &plmr[1], "refine", None));
    let last = &plmr[0][0].report;
    out.put(
        "core.plm.moves",
        counter_sum(last, "move-phase", "moves") as f64,
    );
    out.put(
        "core.plm.levels",
        last.counter("levels").unwrap_or(0) as f64,
    );
    out.put(
        "graph.coarsen.merges",
        counter_sum(last, "coarsen", "merges") as f64,
    );
    out.put(
        "core.plmr.refine_moves",
        counter_sum(last, "refine", "moves") as f64,
    );
    // The phase tree accounts for the detector call: it never exceeds the
    // bench span around it, and what it leaves uncovered is reported.
    let mut unattributed = Vec::new();
    for r in plmr.iter().flatten() {
        let tree: f64 = r.report.phases.iter().map(|p| p.wall_seconds).sum();
        checks.check(tree <= r.span_s * 1.001 + 1e-4, || {
            format!("phase tree {tree:.4}s exceeds its span {:.4}s", r.span_s)
        });
        unattributed.push(1.0 - tree / r.span_s);
    }
    out.put("obs.unattributed_frac", med(&unattributed));

    let colored = traced_detect(t, g, SERVE_SPEC, 2)?;
    out.put(
        "graph.coloring_s",
        self_sum(t, colored.run, "coloring", None),
    );
    out.put(
        "graph.coloring.colors",
        phases_named(&colored.report, "coloring")
            .first()
            .and_then(|p| p.counter("colors"))
            .unwrap_or(0) as f64,
    );

    let mut plp = [Vec::new(), Vec::new()];
    for threads in [2usize, 1, 2, 1, 2, 1] {
        plp[2 - threads].push(traced_detect(t, g, "plp", threads)?);
    }
    let prop = |t: &Tracer, runs: &[Traced]| per(t, runs, "label-propagation", None);
    let (p2, p1) = (prop(t, &plp[0]), prop(t, &plp[1]));
    out.put("core.plp.propagate_s", p2);
    out.put("core.plp.propagate_s.t1", p1);
    out.put("core.plp.propagate_speedup", p1 / p2);
    let iterations = |runs: &[Traced]| {
        med(&runs
            .iter()
            .map(|r| counter_sum(&r.report, "label-propagation", "iterations") as f64)
            .collect::<Vec<_>>())
    };
    out.put("core.plp.iterations", iterations(&plp[0]));
    out.put("core.plp.iterations.t1", iterations(&plp[1]));
    let lp = phases_named(&plp[0][0].report, "label-propagation");
    let lp = lp.first().ok_or("plp report lacks label-propagation")?;
    out.put(
        "core.plp.updates",
        lp.counter("label-updates").unwrap_or(0) as f64,
    );
    let series_sum = |name: &str| lp.series(name).map_or(0.0, |s| s.iter().sum::<f64>());
    out.put(
        "core.plp.update_ratio",
        series_sum("updated") / series_sum("active"),
    );

    // Tracing overhead: the primary detector traced (report + spans) vs.
    // the untraced call the end-to-end run makes.
    let traced: Vec<f64> = match primary {
        "plmr" => plmr[0].iter().map(|r| r.span_s).collect(),
        "plp" => plp[0].iter().map(|r| r.span_s).collect(),
        _ => {
            let extra = traced_detect(t, g, primary, 2)?;
            vec![colored.span_s, extra.span_s]
        }
    };
    let mut untraced = Vec::new();
    for _ in 0..traced.len() {
        let mut det = detector(primary)?;
        let start = Instant::now();
        std::hint::black_box(with_threads(2, || det.detect(g)));
        untraced.push(start.elapsed().as_secs_f64());
    }
    out.put(
        "obs.trace_overhead_frac",
        med(&traced) / med(&untraced) - 1.0,
    );
    Ok(())
}

/// Cost of one empty parallel region at t2, through the shim's public API.
fn rayon_layer(out: &mut Layers) {
    const REGIONS: u32 = 200;
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            with_threads(2, || {
                let start = Instant::now();
                for _ in 0..REGIONS {
                    (0..2usize).into_par_iter().for_each(|i| {
                        std::hint::black_box(i);
                    });
                }
                start.elapsed().as_secs_f64() / f64::from(REGIONS)
            })
        })
        .collect();
    out.put("rayon.region_us", med(&samples) * 1e6);
}

fn ops_of(stream: &mut EdgeStream, ops: usize) -> Vec<EdgeOp> {
    let batch = stream.next_batch(ops);
    batch
        .insert
        .iter()
        .map(|&(u, v)| EdgeOp::Insert(u, v, 1.0))
        .chain(batch.remove.iter().map(|&(u, v)| EdgeOp::Remove(u, v)))
        .collect()
}

/// The daemon's durability and store layers, called in-process on the
/// serve workload's graph: WAL append, CSR rebuild, checkpoint, recovery.
fn serve_layers(t: &mut Tracer, out: &mut Layers, a: &Kv, work: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let g = load(Path::new(a.get("serve_input")?), &Recorder::disabled())?;
    let truth = parcom_io::read_partition(a.get("serve_truth")?).map_err(|e| e.to_string())?;
    let mut stream = EdgeStream::new(&g, &truth, SERVE_PARAMS.mu, a.num("seed")?);
    let dir = work.join("layers-state");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(io)?;

    t.next_run();
    let wal_path = work.join("layers-probe.wal");
    let mut wal = WalWriter::create(&wal_path, 0, FsyncPolicy::Always).map_err(io)?;
    let base = std::fs::metadata(&wal_path).map_err(io)?.len();
    let mut append = Vec::new();
    const APPENDS: usize = 60;
    for _ in 0..APPENDS {
        let ops = ops_of(&mut stream, BATCH_OPS);
        let (r, id) = t.span("serve.wal.append", |_| wal.append(&ops));
        r.map_err(io)?;
        append.push(t.spans()[id].duration());
    }
    let grown = std::fs::metadata(&wal_path).map_err(io)?.len() - base;
    out.put("serve.wal.append_ms", med(&append) * 1e3);
    out.put(
        "serve.wal.bytes_per_op",
        grown as f64 / (APPENDS * BATCH_OPS) as f64,
    );

    t.next_run();
    let mut rebuild = Vec::new();
    for _ in 0..3 {
        let mut entry = GraphEntry::new(g.clone(), None);
        entry.buffer_ops(ops_of(&mut stream, REBUILD_BATCH));
        let ((), id) = t.span("serve.rebuild", |_| entry.rebuild());
        rebuild.push(t.spans()[id].duration());
    }
    out.put("serve.rebuild_s", med(&rebuild));

    t.next_run();
    let durability = Durability::open(&dir, FsyncPolicy::Always).map_err(io)?;
    let mut entry = GraphEntry::new(g.clone(), None);
    durability.persist_new("g", &mut entry).map_err(io)?;
    let mut checkpoint = Vec::new();
    for _ in 0..3 {
        for _ in 0..8 {
            entry
                .commit_ops(ops_of(&mut stream, BATCH_OPS))
                .map_err(io)?;
        }
        let (r, id) = t.span("serve.checkpoint", |_| {
            durability.checkpoint("g", &mut entry)
        });
        r.map_err(io)?;
        checkpoint.push(t.spans()[id].duration());
    }
    out.put("serve.checkpoint_s", med(&checkpoint));
    // a WAL tail past the last checkpoint, for recovery to replay
    for _ in 0..100 {
        entry
            .commit_ops(ops_of(&mut stream, BATCH_OPS))
            .map_err(io)?;
    }
    drop(entry);
    let (mut recover, mut replayed) = (Vec::new(), 0);
    for _ in 0..3 {
        let store = GraphStore::new();
        let (r, id) = t.span("serve.recover", |_| durability.recover(&store));
        replayed = r?.records_replayed;
        recover.push(t.spans()[id].duration());
    }
    out.put("serve.recover_s", med(&recover));
    out.put("serve.recover.replay_ops", (replayed * BATCH_OPS) as f64);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `layers input=G spec=S serve_input=H serve_truth=P seed=N work=D
/// trace=F`: the whole in-process suite; writes the span list to `F`.
pub fn layers(a: &Kv) -> Result<String, String> {
    let input = Path::new(a.get("input")?);
    let work = Path::new(a.get("work")?);
    let mut t = Tracer::new();
    let mut out = Layers::default();
    let mut checks = Checks::default();
    let g = io_layers(&mut t, &mut out, input, work)?;
    core_layers(&mut t, &mut out, &mut checks, &g, a.get("spec")?)?;
    drop(g);
    rayon_layer(&mut out);
    serve_layers(&mut t, &mut out, a, work)?;
    std::fs::write(a.get("trace")?, t.to_json()).map_err(|e| e.to_string())?;
    let mut metrics = Obj::new();
    for (name, value) in &out.0 {
        metrics = metrics.num(name, *value);
    }
    Ok(Obj::new()
        .raw("metrics", &metrics.done())
        .int("checks", checks.attempted)
        .strs("failures", &checks.failed)
        .done())
}
