//! `baseline` — a fixed, reproducible perf baseline for the hot kernels.
//!
//! Runs PLP and PLM on two fixed generated instances (fixed seeds, fixed
//! algorithm seeds) and times one pass of the neighborhood-aggregation
//! microkernel in both formulations (hash map vs generation-stamped
//! scratch) on each graph, plus end-to-end graph ingest (METIS parse +
//! CSR build) on a ~1M-edge instance: the retained sequential reference
//! path against the chunked parallel pipeline, and a resident-vs-cold
//! serving comparison: the same detection request against a running
//! `parcom-serve` daemon holding the graph in memory versus the cold
//! parse-then-detect path a CLI invocation pays, and a move-strategy
//! comparison (racy vs coloring move phases at 1/2/4 threads, plus
//! the coloring setup cost) on both instances, and a memory-format
//! comparison (DESIGN.md §15): parallel METIS text parse vs `.pcg` binary
//! reopen on the ~1M-edge instance, plus the cache effect of degree-ordered
//! relabeling on the hot kernels (tally pass, PLP, PLM) for the skewed
//! instances, and a durability comparison (DESIGN.md §16): WAL append
//! overhead per mutation batch under both fsync policies plus warm
//! recovery (checkpoint reopen + log replay) against the cold text
//! reload. Results go to `BENCH_kernels.json` (schema
//! `parcom-bench-kernels/v6`) together with each run's structured
//! [`RunReport`]; a human-readable summary goes to stderr.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p parcom-bench --bin baseline
//! cargo run --release -p parcom-bench --bin baseline -- --out target/BENCH_kernels.json
//! ```

use parcom_bench::harness::{run_measured, Measurement};
use parcom_bench::kernels::{tally_pass_fxhash, tally_pass_scratch};
use parcom_bench::time;
use parcom_core::quality::modularity;
use parcom_core::{
    move_phase_strategy, move_phase_with_coloring, CommunityDetector, MoveStrategy, Plm, Plp,
};
use parcom_generators::{barabasi_albert, lfr, rmat, LfrParams, RmatParams};
use parcom_graph::hashing::FxHashMap;
use parcom_graph::parallel::with_threads;
use parcom_graph::relabel::Relabeling;
use parcom_graph::{Coloring, Graph, Partition, SparseWeightMap};
use parcom_guard::Budget;
use parcom_obs::{json, Recorder};

/// Schema tag of the emitted JSON document.
const SCHEMA: &str = "parcom-bench-kernels/v6";
/// Seed of both instance generators and (offset by algorithm) the runs.
const SEED: u64 = 42;
/// Repetitions of each microkernel pass; the minimum is reported.
const KERNEL_REPS: usize = 3;

/// Timings of one aggregation-kernel comparison on one graph.
struct KernelTiming {
    fxhash_ms: f64,
    scratch_ms: f64,
}

/// Everything measured on one instance.
struct InstanceResult {
    name: String,
    nodes: usize,
    edges: usize,
    kernel: KernelTiming,
    runs: Vec<Measurement>,
}

/// Minimum wall time of `reps` executions, in milliseconds.
fn min_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, t) = time(&mut f);
        best = best.min(t.as_secs_f64() * 1e3);
    }
    best
}

/// Times one tally + arg-max pass in both formulations, asserting they
/// choose identical labels (singleton labels: worst case for hashing).
fn kernel_timing(g: &Graph) -> KernelTiming {
    let labels: Vec<u32> = g.nodes().collect();
    let mut h = FxHashMap::default();
    let mut s = SparseWeightMap::with_capacity(g.node_count());
    assert_eq!(
        tally_pass_fxhash(g, &labels, &mut h),
        tally_pass_scratch(g, &labels, &mut s),
        "hash and scratch formulations diverged"
    );
    KernelTiming {
        fxhash_ms: min_ms(KERNEL_REPS, || tally_pass_fxhash(g, &labels, &mut h)),
        scratch_ms: min_ms(KERNEL_REPS, || tally_pass_scratch(g, &labels, &mut s)),
    }
}

fn measure_instance(name: &str, g: &Graph) -> InstanceResult {
    eprintln!(
        "[baseline] {name}: n={} m={}",
        g.node_count(),
        g.edge_count()
    );
    let kernel = kernel_timing(g);
    eprintln!(
        "[baseline]   kernel tally: fxhash {:.3} ms, scratch {:.3} ms ({:.2}x)",
        kernel.fxhash_ms,
        kernel.scratch_ms,
        kernel.fxhash_ms / kernel.scratch_ms.max(1e-9)
    );
    let mut algorithms: Vec<Box<dyn CommunityDetector>> =
        vec![Box::new(Plp::new()), Box::new(Plm::new())];
    let mut runs = Vec::new();
    for algo in &mut algorithms {
        algo.set_seed(1);
        let (_, m) = run_measured(algo.as_mut(), g, name);
        eprintln!(
            "[baseline]   {}: {:.3} s, modularity {:.4}, {} communities",
            m.algorithm,
            m.time.as_secs_f64(),
            m.modularity,
            m.communities
        );
        runs.push(m);
    }
    InstanceResult {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        kernel,
        runs,
    }
}

/// End-to-end ingest comparison on one ~1M-edge METIS buffer.
struct IngestResult {
    name: String,
    nodes: usize,
    edges: usize,
    bytes: usize,
    /// Retained pre-parallel path: `String` per line + sequential assembly.
    seq_ms: f64,
    /// Chunked byte parser + parallel CSR build, end to end.
    par_ms: f64,
    /// Parse-phase share of the parallel path (from `ingest/parse`).
    par_parse_ms: f64,
    /// Build-phase share of the parallel path (from `ingest/build`).
    par_build_ms: f64,
}

/// Measures METIS ingest (parse + CSR build) on a ~1M-edge BA graph:
/// the retained sequential reference against the chunked pipeline, plus
/// the parallel path's parse/build phase split via the recorded reader.
fn measure_ingest(name: &str, g: &Graph, buf: &[u8]) -> IngestResult {
    use parcom_io::metis::{read_metis_bytes, read_metis_recorded, read_metis_seq};

    eprintln!(
        "[baseline] ingest {name}: n={} m={} ({} MiB)",
        g.node_count(),
        g.edge_count(),
        buf.len() >> 20
    );

    // sanity: both paths produce the same graph before timing them
    let a = read_metis_seq(buf).expect("sequential ingest failed");
    let b = read_metis_bytes(buf).expect("parallel ingest failed");
    assert_eq!(a.edge_count(), b.edge_count(), "ingest paths diverged");

    let seq_ms = min_ms(KERNEL_REPS, || read_metis_seq(buf).unwrap());
    let par_ms = min_ms(KERNEL_REPS, || read_metis_bytes(buf).unwrap());

    // phase split of the parallel path via the recorded entry point
    let path = std::env::temp_dir().join("parcom_baseline_ingest.metis");
    std::fs::write(&path, buf).expect("writing the ingest temp file failed");
    let (mut par_parse_ms, mut par_build_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..KERNEL_REPS {
        let rec = Recorder::enabled();
        read_metis_recorded(&path, &rec).unwrap();
        let report = rec.finish("ingest");
        let phase_ms = |name: &str| report.phase(name).map_or(0.0, |p| p.wall_seconds * 1e3);
        par_parse_ms = par_parse_ms.min(phase_ms("ingest/parse"));
        par_build_ms = par_build_ms.min(phase_ms("ingest/build"));
    }
    std::fs::remove_file(&path).ok();

    eprintln!(
        "[baseline]   ingest: seq {seq_ms:.1} ms, parallel {par_ms:.1} ms ({:.2}x; parse {par_parse_ms:.1} + build {par_build_ms:.1})",
        seq_ms / par_ms.max(1e-9)
    );
    IngestResult {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        bytes: buf.len(),
        seq_ms,
        par_ms,
        par_parse_ms,
        par_build_ms,
    }
}

/// Resident-vs-cold serving comparison on the ingest instance.
struct ServeResult {
    name: String,
    nodes: usize,
    edges: usize,
    spec: String,
    /// One-time cost of loading the graph into the daemon (inline METIS
    /// upload: HTTP + budgeted parse + CSR build + store insert).
    load_ms: f64,
    /// Detection request against the resident graph: HTTP round-trip +
    /// detection, no parse.
    resident_ms: f64,
    /// What a cold CLI invocation pays for the same detection: METIS parse
    /// + CSR build + detection.
    cold_ms: f64,
}

/// One HTTP exchange against the bench daemon; panics on transport errors
/// (the daemon is local and owned by this process).
fn daemon_request(
    stream: &mut std::net::TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    use std::io::{Read, Write};
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("daemon request write failed");
    // responses are either Content-Length or chunked framed; read the head
    // first, then exactly the framed body
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16384];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream
            .read(&mut chunk)
            .expect("daemon response read failed");
        assert!(n > 0, "daemon closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("bad status line");
    let mut rest = buf[head_end + 4..].to_vec();
    let head_lower = head.to_ascii_lowercase();
    let body = if head_lower.contains("transfer-encoding: chunked") {
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        loop {
            let line_end = loop {
                if let Some(p) = rest[pos..].windows(2).position(|w| w == b"\r\n") {
                    break pos + p;
                }
                let n = stream.read(&mut chunk).expect("daemon chunk read failed");
                assert!(n > 0, "daemon closed mid-chunk");
                rest.extend_from_slice(&chunk[..n]);
            };
            let size = usize::from_str_radix(
                std::str::from_utf8(&rest[pos..line_end]).unwrap().trim(),
                16,
            )
            .expect("bad chunk size");
            let data_start = line_end + 2;
            while rest.len() < data_start + size + 2 {
                let n = stream.read(&mut chunk).expect("daemon chunk read failed");
                assert!(n > 0, "daemon closed mid-chunk");
                rest.extend_from_slice(&chunk[..n]);
            }
            if size == 0 {
                break;
            }
            decoded.extend_from_slice(&rest[data_start..data_start + size]);
            pos = data_start + size + 2;
        }
        decoded
    } else {
        let length: usize = head_lower
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("response without framing");
        while rest.len() < length {
            let n = stream.read(&mut chunk).expect("daemon body read failed");
            assert!(n > 0, "daemon closed mid-body");
            rest.extend_from_slice(&chunk[..n]);
        }
        rest.truncate(length);
        rest
    };
    (status, String::from_utf8(body).unwrap())
}

/// Measures resident serving against cold parse-then-detect on the ingest
/// instance: the daemon runs in-process on a loopback TCP port, the cold
/// path replays exactly what a CLI invocation does (parse the METIS bytes,
/// build the CSR, detect).
fn measure_serve(name: &str, g: &Graph, metis: &[u8]) -> ServeResult {
    use parcom_core::DetectorSpec;
    use parcom_io::metis::read_metis_bytes;
    use parcom_serve::{ServeConfig, Server};

    // PLP is the paper's high-throughput detector — the regime where the
    // parse actually dominates a cold invocation and residency pays
    let spec = "plp:seed=1";
    let server = Server::bind(ServeConfig {
        addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("binding the bench daemon failed");
    let addr = server.local_tcp_addr().expect("daemon has no TCP address");
    std::thread::spawn(move || server.run());
    let mut stream = std::net::TcpStream::connect(addr).expect("connecting to the daemon failed");
    stream
        .set_nodelay(true)
        .expect("setting TCP_NODELAY failed");

    // one-time load: inline METIS upload
    let mut load_body = String::from("{\"content\":");
    json::write_str(&mut load_body, std::str::from_utf8(metis).unwrap());
    load_body.push('}');
    let ((load_status, _), t) =
        time(|| daemon_request(&mut stream, "PUT", &format!("/graphs/{name}"), &load_body));
    assert_eq!(load_status, 201, "bench graph upload failed");
    let load_ms = t.as_secs_f64() * 1e3;

    // resident detections: HTTP + detect, no parse
    let detect_body = format!("{{\"graph\":\"{name}\",\"spec\":\"{spec}\"}}");
    let (first_status, first_body) = daemon_request(&mut stream, "POST", "/detect", &detect_body);
    assert_eq!(first_status, 200, "resident detect failed: {first_body}");
    assert!(
        first_body.contains("\"termination\":\"converged\""),
        "resident detect did not converge: {first_body}"
    );
    let resident_ms = min_ms(KERNEL_REPS, || {
        daemon_request(&mut stream, "POST", "/detect", &detect_body)
    });

    // cold path: parse + build + detect, as `parcom detect` would
    let cold_ms = min_ms(KERNEL_REPS, || {
        let g = read_metis_bytes(metis).expect("cold parse failed");
        DetectorSpec::parse(spec)
            .expect("bench spec invalid")
            .build()
            .expect("bench spec build failed")
            .detect(&g)
    });

    eprintln!(
        "[baseline]   serve: load {load_ms:.1} ms once, resident {resident_ms:.1} ms/req vs cold {cold_ms:.1} ms/req ({:.2}x)",
        cold_ms / resident_ms.max(1e-9)
    );
    ServeResult {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        spec: spec.to_string(),
        load_ms,
        resident_ms,
        cold_ms,
    }
}

/// Memory-format comparison on the ingest instance (DESIGN.md §15):
/// parallel METIS text parse vs `.pcg` binary reopen, from files in both
/// cases, plus the size and relabeling-apply cost of the binary artifact.
struct MemoryFormatResult {
    name: String,
    nodes: usize,
    edges: usize,
    metis_bytes: usize,
    pcg_bytes: usize,
    /// Parallel METIS path: `fs::read` + chunked parse + CSR build.
    text_parse_ms: f64,
    /// Binary path: `fs::read` (or mmap) + checksum + cast, zero parsing.
    binary_reopen_ms: f64,
    /// One-time cost of computing + applying the degree ordering.
    relabel_apply_ms: f64,
    /// Hot-kernel timings on the original vs relabeled views.
    kernels: Vec<RelabelKernel>,
}

/// One kernel timed on the original and the degree-ordered view.
struct RelabelKernel {
    instance: String,
    kernel: String,
    original_ms: f64,
    relabeled_ms: f64,
}

/// Times the hot kernels on a graph and its degree-ordered view: one
/// tally + arg-max pass (the PLP/PLM inner loop, scratch formulation) and
/// the end-to-end PLP and PLM runs. The relabeled runs traverse the same
/// edges in hub-first order, so any delta is pure cache effect for the
/// tally pass; the end-to-end runs additionally see order-dependent sweep
/// counts (DESIGN.md §15) and are recorded for honesty, not asserted.
fn relabel_kernels(name: &str, g: &Graph, out: &mut Vec<RelabelKernel>) {
    let r = Relabeling::degree_ordered(g);
    let h = r.apply(g);
    let time_tally = |g: &Graph| {
        let labels: Vec<u32> = g.nodes().collect();
        let mut s = SparseWeightMap::with_capacity(g.node_count());
        min_ms(KERNEL_REPS, || tally_pass_scratch(g, &labels, &mut s))
    };
    let time_detector = |mk: &dyn Fn() -> Box<dyn CommunityDetector>, g: &Graph| {
        min_ms(KERNEL_REPS, || {
            let mut algo = mk();
            algo.set_seed(1);
            algo.detect(g)
        })
    };
    let kernels: [(&str, f64, f64); 3] = [
        ("tally_scratch", time_tally(g), time_tally(&h)),
        (
            "plp",
            time_detector(&|| Box::new(Plp::new()), g),
            time_detector(&|| Box::new(Plp::new()), &h),
        ),
        (
            "plm",
            time_detector(&|| Box::new(Plm::new()), g),
            time_detector(&|| Box::new(Plm::new()), &h),
        ),
    ];
    for (kernel, original_ms, relabeled_ms) in kernels {
        eprintln!(
            "[baseline]   relabel[{name}/{kernel}]: original {original_ms:.1} ms, relabeled {relabeled_ms:.1} ms ({:.2}x)",
            original_ms / relabeled_ms.max(1e-9)
        );
        out.push(RelabelKernel {
            instance: name.to_string(),
            kernel: kernel.to_string(),
            original_ms,
            relabeled_ms,
        });
    }
}

/// Measures the memory-format comparison on the ingest instance: both
/// formats are loaded from real files (page-cache warm, same as repeated
/// analysis sessions), so the binary number is the `.pcg` promise — admit,
/// checksum, cast, no parse.
fn measure_memory_format(name: &str, g: &Graph, metis: &[u8]) -> MemoryFormatResult {
    use parcom_io::metis::read_metis_bytes;

    let dir = std::env::temp_dir();
    let metis_path = dir.join("parcom_baseline_fmt.metis");
    let pcg_path = dir.join("parcom_baseline_fmt.pcg");
    std::fs::write(&metis_path, metis).expect("writing the METIS temp file failed");

    let relabel_apply_ms = min_ms(KERNEL_REPS, || {
        let r = Relabeling::degree_ordered(g);
        r.apply(g)
    });
    let r = Relabeling::degree_ordered(g);
    let h = r.apply(g);
    parcom_io::write_pcg(&h, Some(&r), &pcg_path).expect("writing the .pcg temp file failed");
    let pcg_bytes = std::fs::metadata(&pcg_path)
        .expect("stat of the .pcg temp file failed")
        .len() as usize;

    // sanity: the reread binary view matches the in-memory one
    let reread =
        parcom_io::read_pcg_budgeted(&pcg_path, &Recorder::disabled(), &Budget::unlimited())
            .expect("binary reopen failed");
    assert_eq!(
        reread.graph.edge_count(),
        g.edge_count(),
        "binary roundtrip diverged"
    );

    let text_parse_ms = min_ms(KERNEL_REPS, || {
        let buf = std::fs::read(&metis_path).expect("metis read failed");
        read_metis_bytes(&buf).expect("metis parse failed")
    });
    let binary_reopen_ms = min_ms(KERNEL_REPS, || {
        parcom_io::read_pcg_budgeted(&pcg_path, &Recorder::disabled(), &Budget::unlimited())
            .expect("binary reopen failed")
    });
    std::fs::remove_file(&metis_path).ok();
    std::fs::remove_file(&pcg_path).ok();

    eprintln!(
        "[baseline]   format: text parse {text_parse_ms:.1} ms vs binary reopen {binary_reopen_ms:.2} ms ({:.1}x; {} -> {} bytes, relabel apply {relabel_apply_ms:.1} ms)",
        text_parse_ms / binary_reopen_ms.max(1e-9),
        metis.len(),
        pcg_bytes
    );
    MemoryFormatResult {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        metis_bytes: metis.len(),
        pcg_bytes,
        text_parse_ms,
        binary_reopen_ms,
        relabel_apply_ms,
        kernels: Vec::new(),
    }
}

/// Durability costs on the ingest instance (DESIGN.md §16): the WAL
/// append overhead a mutation batch pays before it is acknowledged, under
/// both fsync policies, and the warm-restart recovery time (checkpoint
/// reopen + log replay) against the cold text reload a volatile daemon
/// pays after losing its memory.
struct DurabilityResult {
    name: String,
    nodes: usize,
    edges: usize,
    /// Operations per appended batch.
    batch_ops: usize,
    /// Batches appended (= WAL records replayed by recovery).
    batches: usize,
    /// Mean per-batch append cost with `--fsync always` (the default).
    wal_append_always_ms: f64,
    /// Mean per-batch append cost with `--fsync never`.
    wal_append_never_ms: f64,
    /// Warm restart: reopen the `.pcg` checkpoint + replay the log tail.
    recovery_ms: f64,
    /// Cold restart: reread + reparse the METIS text.
    cold_reload_ms: f64,
}

fn measure_durability(name: &str, g: &Graph, metis: &[u8]) -> DurabilityResult {
    use parcom_serve::persist::Durability;
    use parcom_serve::store::{EdgeOp, GraphEntry, GraphStore};
    use parcom_serve::wal::FsyncPolicy;

    const BATCH_OPS: usize = 256;
    const BATCHES: usize = 64;

    let n = g.node_count() as u64;
    let batch = |b: usize| -> Vec<EdgeOp> {
        (0..BATCH_OPS)
            .map(|i| {
                let k = (b * BATCH_OPS + i) as u64;
                let u = (k.wrapping_mul(2_654_435_761) % n) as u32;
                let v = ((k.wrapping_mul(40_503) + 1) % n) as u32;
                EdgeOp::Insert(u.min(v), u.max(v) + 1, 1.0 + (k % 7) as f64)
            })
            .collect()
    };

    // One daemon-equivalent state directory per fsync policy; the append
    // loop is what a daemon does between a batch's arrival and its ack.
    let mut append_ms = [0.0f64; 2];
    let mut warm_dir = None;
    for (slot, policy) in [(0, FsyncPolicy::Always), (1, FsyncPolicy::Never)] {
        let dir = std::env::temp_dir().join(format!(
            "parcom_baseline_dur_{}_{}",
            std::process::id(),
            policy.as_str()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let durability = Durability::open(&dir, policy).expect("opening the state dir failed");
        let mut entry = GraphEntry::new(g.clone(), None);
        durability
            .persist_new(name, &mut entry)
            .expect("persisting the bench graph failed");
        let (_, t) = time(|| {
            for b in 0..BATCHES {
                entry
                    .commit_ops(batch(b))
                    .expect("WAL append failed in the bench loop");
            }
        });
        append_ms[slot] = t.as_secs_f64() * 1e3 / BATCHES as f64;
        if policy == FsyncPolicy::Always {
            warm_dir = Some(dir); // recovery is measured on the synced dir
        } else {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let warm_dir = warm_dir.expect("always-policy dir missing");

    // Warm restart: exactly what `Server::run` does before turning ready.
    let recovery_ms = min_ms(KERNEL_REPS, || {
        let store = GraphStore::new();
        let durability =
            Durability::open(&warm_dir, FsyncPolicy::Always).expect("reopening state dir failed");
        let report = durability.recover(&store).expect("recovery failed");
        assert_eq!(report.graphs, 1, "bench graph did not recover");
        assert_eq!(report.records_replayed, BATCHES, "wrong replay count");
        assert_eq!(report.warm, 1, "recovery should take the warm path");
    });

    // Cold restart: the text path a stateless daemon pays to reload.
    let metis_path =
        std::env::temp_dir().join(format!("parcom_baseline_dur_{}.metis", std::process::id()));
    std::fs::write(&metis_path, metis).expect("writing the METIS temp file failed");
    let cold_reload_ms = min_ms(KERNEL_REPS, || {
        let buf = std::fs::read(&metis_path).expect("metis read failed");
        parcom_io::metis::read_metis_bytes(&buf).expect("metis parse failed")
    });
    std::fs::remove_file(&metis_path).ok();
    std::fs::remove_dir_all(&warm_dir).ok();

    eprintln!(
        "[baseline]   durability: append {:.3} ms/batch synced ({:.3} ms unsynced, {BATCH_OPS} ops), warm recovery {recovery_ms:.1} ms vs cold reload {cold_reload_ms:.1} ms ({:.1}x)",
        append_ms[0],
        append_ms[1],
        cold_reload_ms / recovery_ms.max(1e-9)
    );
    DurabilityResult {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        batch_ops: BATCH_OPS,
        batches: BATCHES,
        wal_append_always_ms: append_ms[0],
        wal_append_never_ms: append_ms[1],
        recovery_ms,
        cold_reload_ms,
    }
}

/// One move strategy's timings on one instance (DESIGN.md §14).
struct StrategyResult {
    instance: String,
    strategy: MoveStrategy,
    /// `(thread_count, move_phase_ms)` pairs: one move phase from
    /// singletons, 4 sweeps, minimum of [`KERNEL_REPS`] runs.
    threads: Vec<(usize, f64)>,
    /// One-time coloring setup cost (coloring strategy only, else 0).
    setup_ms: f64,
    /// End-to-end PLM modularity under this strategy, for the
    /// quality-parity record next to the timings.
    modularity: f64,
}

/// Times both move-phase strategies on one instance at 1/2/4-thread
/// pools (this container may have fewer cores — oversubscribed pools still
/// exercise the schedule, so the timings are honest for the box they ran
/// on), plus the coloring strategy's per-level setup cost.
fn measure_move_strategies(name: &str, g: &Graph) -> Vec<StrategyResult> {
    let mut results = Vec::new();
    for strategy in MoveStrategy::ALL {
        // The coloring is per-level setup PLM amortizes over every sweep
        // of the level (move + refinement), so it is timed apart from the
        // per-sweep move work.
        let coloring = (strategy == MoveStrategy::Coloring).then(|| Coloring::compute(g));
        let setup_ms = if strategy == MoveStrategy::Coloring {
            min_ms(KERNEL_REPS, || Coloring::compute(g))
        } else {
            0.0
        };
        let threads: Vec<(usize, f64)> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                let ms = min_ms(KERNEL_REPS, || {
                    with_threads(t, || {
                        let mut p = Partition::singleton(g.node_count());
                        match &coloring {
                            Some(c) => move_phase_with_coloring(g, &mut p, 1.0, 4, c),
                            None => move_phase_strategy(g, &mut p, 1.0, 4, strategy),
                        }
                    })
                });
                (t, ms)
            })
            .collect();
        let mut plm = Plm::with_strategy(strategy);
        plm.set_seed(1);
        let q = modularity(g, &plm.detect(g));
        let per_thread = threads
            .iter()
            .map(|(t, ms)| format!("t{t} {ms:.1} ms"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "[baseline]   move[{strategy}]: {per_thread}{}; plm modularity {q:.4}",
            if setup_ms > 0.0 {
                format!(" (+ coloring setup {setup_ms:.1} ms)")
            } else {
                String::new()
            }
        );
        results.push(StrategyResult {
            instance: name.to_string(),
            strategy,
            threads,
            setup_ms,
            modularity: q,
        });
    }
    results
}

fn write_durability(out: &mut String, r: &DurabilityResult) {
    out.push_str("{\"name\":");
    json::write_str(out, &r.name);
    out.push_str(&format!(
        ",\"nodes\":{},\"edges\":{},\"batch_ops\":{},\"batches\":{}",
        r.nodes, r.edges, r.batch_ops, r.batches
    ));
    out.push_str(",\"wal_append_always_ms\":");
    json::write_f64(out, r.wal_append_always_ms);
    out.push_str(",\"wal_append_never_ms\":");
    json::write_f64(out, r.wal_append_never_ms);
    out.push_str(",\"recovery_ms\":");
    json::write_f64(out, r.recovery_ms);
    out.push_str(",\"cold_reload_ms\":");
    json::write_f64(out, r.cold_reload_ms);
    out.push_str(",\"warm_speedup\":");
    json::write_f64(out, r.cold_reload_ms / r.recovery_ms.max(1e-9));
    out.push('}');
}

fn write_strategy(out: &mut String, r: &StrategyResult) {
    out.push_str("{\"instance\":");
    json::write_str(out, &r.instance);
    out.push_str(",\"strategy\":");
    json::write_str(out, r.strategy.wire_name());
    out.push_str(&format!(
        ",\"deterministic\":{}",
        r.strategy.is_deterministic()
    ));
    out.push_str(",\"setup_ms\":");
    json::write_f64(out, r.setup_ms);
    out.push_str(",\"modularity\":");
    json::write_f64(out, r.modularity);
    out.push_str(",\"threads\":[");
    for (i, (t, ms)) in r.threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"threads\":{t},\"move_ms\":"));
        json::write_f64(out, *ms);
        out.push('}');
    }
    out.push_str("]}");
}

fn write_serve(out: &mut String, r: &ServeResult) {
    out.push_str("{\"name\":");
    json::write_str(out, &r.name);
    out.push_str(&format!(",\"nodes\":{},\"edges\":{}", r.nodes, r.edges));
    out.push_str(",\"spec\":");
    json::write_str(out, &r.spec);
    out.push_str(",\"load_ms\":");
    json::write_f64(out, r.load_ms);
    out.push_str(",\"resident_ms\":");
    json::write_f64(out, r.resident_ms);
    out.push_str(",\"cold_ms\":");
    json::write_f64(out, r.cold_ms);
    out.push_str(",\"speedup\":");
    json::write_f64(out, r.cold_ms / r.resident_ms.max(1e-9));
    out.push('}');
}

fn write_ingest(out: &mut String, r: &IngestResult) {
    out.push_str("{\"name\":");
    json::write_str(out, &r.name);
    out.push_str(&format!(
        ",\"nodes\":{},\"edges\":{},\"bytes\":{}",
        r.nodes, r.edges, r.bytes
    ));
    out.push_str(",\"seq_ms\":");
    json::write_f64(out, r.seq_ms);
    out.push_str(",\"par_ms\":");
    json::write_f64(out, r.par_ms);
    out.push_str(",\"par_parse_ms\":");
    json::write_f64(out, r.par_parse_ms);
    out.push_str(",\"par_build_ms\":");
    json::write_f64(out, r.par_build_ms);
    out.push_str(",\"speedup\":");
    json::write_f64(out, r.seq_ms / r.par_ms.max(1e-9));
    out.push('}');
}

fn write_memory_format(out: &mut String, r: &MemoryFormatResult) {
    out.push_str("{\"name\":");
    json::write_str(out, &r.name);
    out.push_str(&format!(
        ",\"nodes\":{},\"edges\":{},\"metis_bytes\":{},\"pcg_bytes\":{}",
        r.nodes, r.edges, r.metis_bytes, r.pcg_bytes
    ));
    out.push_str(",\"text_parse_ms\":");
    json::write_f64(out, r.text_parse_ms);
    out.push_str(",\"binary_reopen_ms\":");
    json::write_f64(out, r.binary_reopen_ms);
    out.push_str(",\"reopen_speedup\":");
    json::write_f64(out, r.text_parse_ms / r.binary_reopen_ms.max(1e-9));
    out.push_str(",\"relabel_apply_ms\":");
    json::write_f64(out, r.relabel_apply_ms);
    out.push_str(",\"kernels\":[");
    for (i, k) in r.kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"instance\":");
        json::write_str(out, &k.instance);
        out.push_str(",\"kernel\":");
        json::write_str(out, &k.kernel);
        out.push_str(",\"original_ms\":");
        json::write_f64(out, k.original_ms);
        out.push_str(",\"relabeled_ms\":");
        json::write_f64(out, k.relabeled_ms);
        out.push_str(",\"speedup\":");
        json::write_f64(out, k.original_ms / k.relabeled_ms.max(1e-9));
        out.push('}');
    }
    out.push_str("]}");
}

fn write_instance(out: &mut String, r: &InstanceResult) {
    out.push_str("{\"name\":");
    json::write_str(out, &r.name);
    out.push_str(&format!(",\"nodes\":{},\"edges\":{}", r.nodes, r.edges));
    out.push_str(",\"kernel\":{\"fxhash_ms\":");
    json::write_f64(out, r.kernel.fxhash_ms);
    out.push_str(",\"scratch_ms\":");
    json::write_f64(out, r.kernel.scratch_ms);
    out.push_str(",\"speedup\":");
    json::write_f64(out, r.kernel.fxhash_ms / r.kernel.scratch_ms.max(1e-9));
    out.push_str("},\"runs\":[");
    for (i, m) in r.runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"algorithm\":");
        json::write_str(out, &m.algorithm);
        out.push_str(",\"seconds\":");
        json::write_f64(out, m.time.as_secs_f64());
        out.push_str(",\"modularity\":");
        json::write_f64(out, m.modularity);
        out.push_str(&format!(",\"communities\":{}", m.communities));
        out.push_str(",\"report\":");
        out.push_str(&m.report.to_json());
        out.push('}');
    }
    out.push_str("]}");
}

fn main() {
    let mut out_path = String::from("BENCH_kernels.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().expect("--out requires a path argument");
            }
            other => {
                eprintln!("usage: baseline [--out <path>]");
                panic!("unrecognized argument `{other}`");
            }
        }
    }

    // Two fixed instances bracketing the paper's corpus: a planted-community
    // LFR graph and a skewed-degree R-MAT graph (scale 15, edge factor 16).
    let (lfr_graph, _) = lfr(LfrParams::benchmark(20_000, 0.3), SEED);
    let rmat_graph = rmat(RmatParams::paper_with_edge_factor(15, 16), SEED);
    let results = [
        measure_instance("lfr_20k_mu03", &lfr_graph),
        measure_instance("rmat_s15_ef16", &rmat_graph),
    ];
    // the ~1M-edge BA instance feeds both the ingest comparison and the
    // resident-vs-cold serving comparison
    let ba_name = "ba_65k_a16_metis";
    let ba_graph = barabasi_albert(65_000, 16, SEED);
    let mut ba_metis: Vec<u8> = Vec::new();
    parcom_io::write_metis_to(&ba_graph, &mut ba_metis)
        .expect("rendering the ingest instance failed");
    let ingest = measure_ingest(ba_name, &ba_graph, &ba_metis);
    let serve = measure_serve(ba_name, &ba_graph, &ba_metis);
    let durability = measure_durability(ba_name, &ba_graph, &ba_metis);
    let mut memory_format = measure_memory_format(ba_name, &ba_graph, &ba_metis);
    relabel_kernels(ba_name, &ba_graph, &mut memory_format.kernels);
    relabel_kernels("rmat_s15_ef16", &rmat_graph, &mut memory_format.kernels);
    let mut strategies = measure_move_strategies("lfr_20k_mu03", &lfr_graph);
    strategies.extend(measure_move_strategies("rmat_s15_ef16", &rmat_graph));

    let mut doc = String::with_capacity(4096);
    doc.push_str("{\"schema\":");
    json::write_str(&mut doc, SCHEMA);
    doc.push_str(&format!(",\"seed\":{SEED},\"instances\":["));
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        write_instance(&mut doc, r);
    }
    doc.push_str("],\"ingest\":");
    write_ingest(&mut doc, &ingest);
    doc.push_str(",\"serve\":");
    write_serve(&mut doc, &serve);
    doc.push_str(",\"durability\":");
    write_durability(&mut doc, &durability);
    doc.push_str(",\"memory_format\":");
    write_memory_format(&mut doc, &memory_format);
    doc.push_str(",\"move_strategy\":[");
    for (i, r) in strategies.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        write_strategy(&mut doc, r);
    }
    doc.push_str("]}");
    if let Err(e) = json::validate(&doc) {
        panic!("emitted malformed JSON: {e}");
    }
    std::fs::write(&out_path, &doc).expect("writing the baseline report failed");
    eprintln!("[baseline] wrote {out_path}");
}
