//! Program work of the batch workloads. Each task runs in a child process
//! that did not generate its input, and prints one JSON object as the last
//! line of its standard output.

use crate::util::{detector, load, peak_rss_mb, Kv, Obj};
use parcom_core::{compare, quality};
use parcom_graph::parallel::with_threads;
use parcom_obs::Recorder;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `cold input=G spec=S`: one cold repeat in a fresh process — ingest,
/// then detect at t2 — as one `parcom detect` run does it. Reports its time
/// and the process's peak RSS.
pub fn cold(a: &Kv) -> Result<String, String> {
    let start = Instant::now();
    let g = load(Path::new(a.get("input")?), &Recorder::disabled())?;
    let mut det = detector(a.get("spec")?)?;
    let z = with_threads(2, || det.detect(&g));
    let seconds = start.elapsed().as_secs_f64();
    Ok(Obj::new()
        .num("seconds", seconds)
        .int("communities", z.number_of_subsets() as u64)
        .num("peak_rss_mb", peak_rss_mb(None))
        .done())
}

/// `convert input=G out=P`: the text-to-`.pcg` convert (no relabeling),
/// with a checksum of the bytes written.
pub fn convert(a: &Kv) -> Result<String, String> {
    let start = Instant::now();
    let g = load(Path::new(a.get("input")?), &Recorder::disabled())?;
    let pcg = a.get("out")?;
    parcom_io::write_pcg(&g, None, pcg).map_err(|e| format!("writing {pcg}: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let bytes = std::fs::read(pcg).map_err(|e| e.to_string())?;
    Ok(Obj::new()
        .num("seconds", seconds)
        .str(
            "checksum",
            &format!("{:016x}", parcom_io::binfmt::checksum64(&bytes)),
        )
        .done())
}

/// `ready input=G`: ingest, then announce readiness on stdout and exit.
/// The parent times spawn to announcement (restart-to-ready).
pub fn ready(a: &Kv) -> Result<String, String> {
    let g = load(Path::new(a.get("input")?), &Recorder::disabled())?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready").map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    Ok(Obj::new().int("nodes", g.node_count() as u64).done())
}

/// Outcome of the correctness checks of one task.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }
}

/// Checks a detector's partition: it covers all `n` nodes and its NMI
/// against the planted partition clears the floor. Returns the NMI.
pub fn check_partition(
    checks: &mut Checks,
    z: &parcom_graph::Partition,
    truth: &parcom_graph::Partition,
    floor: f64,
) -> f64 {
    checks.check(z.len() == truth.len(), || {
        format!("partition covers {} of {} nodes", z.len(), truth.len())
    });
    if z.len() != truth.len() {
        return 0.0;
    }
    let nmi = compare::nmi(z, truth);
    checks.check(nmi >= floor, || format!("nmi {nmi:.4} below floor {floor}"));
    nmi
}

/// Checks that the detector's reported modularity matches a recomputation.
pub fn check_modularity(checks: &mut Checks, reported: Option<f64>, recomputed: f64) {
    match reported {
        Some(q) => checks.check(
            (q - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0),
            || format!("reported modularity {q} != recomputed {recomputed}"),
        ),
        None => checks.check(false, || "run report lacks modularity".into()),
    }
}

/// `measure input=G[,G...] spec=S seconds=T truth=P[,P...] floor=F
/// threads=2,1`: cold repeats of ingest + detect, cycling through the thread
/// counts, for `T` seconds; then one reported run on the first input whose
/// modularity is checked against a recomputation. With several inputs
/// (`truth` lists one planted partition per input) each pass through the
/// thread counts takes the next input, so the samples average over inputs
/// of one kind rather than over one input's sweep count.
pub fn measure(a: &Kv) -> Result<String, String> {
    let inputs: Vec<&Path> = a.get("input")?.split(',').map(Path::new).collect();
    let spec = a.get("spec")?;
    let seconds: f64 = a.num("seconds")?;
    let cycle: Vec<usize> = a
        .get("threads")?
        .split(',')
        .map(|t| t.parse().map_err(|_| format!("bad thread count `{t}`")))
        .collect::<Result<_, _>>()?;
    let floor: f64 = a.num("floor")?;
    let truths = a
        .get("truth")?
        .split(',')
        .map(|p| parcom_io::read_partition(p).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    if truths.len() != inputs.len() {
        return Err(format!(
            "{} inputs but {} planted partitions",
            inputs.len(),
            truths.len()
        ));
    }
    let (mut ingest, mut t2, mut t1) = (Vec::new(), Vec::new(), Vec::new());
    let (mut qs, mut nmis) = (Vec::new(), Vec::new());
    let mut checks = Checks::default();
    let mut sizes = vec![(0, 0); inputs.len()];
    let start = Instant::now();
    for (i, threads) in cycle.iter().copied().cycle().enumerate() {
        let sampled = |t: &Vec<f64>, n| !cycle.contains(&n) || !t.is_empty();
        if start.elapsed().as_secs_f64() >= seconds && sampled(&t2, 2) && sampled(&t1, 1) {
            break;
        }
        let k = i / cycle.len() % inputs.len();
        let t = Instant::now();
        let g = load(inputs[k], &Recorder::disabled())?;
        ingest.push(t.elapsed().as_secs_f64());
        let size = (g.node_count(), g.edge_count());
        if sizes[k].0 > 0 {
            checks.check(sizes[k] == size, || {
                "a repeated ingest read a different graph".into()
            });
        }
        sizes[k] = size;
        let mut det = detector(spec)?;
        let t = Instant::now();
        let z = with_threads(threads, || det.detect(&g));
        let dt = t.elapsed().as_secs_f64();
        if threads == 1 { &mut t1 } else { &mut t2 }.push(dt);
        nmis.push(check_partition(&mut checks, &z, &truths[k], floor));
        qs.push(quality::modularity(&g, &z));
    }
    let g = load(inputs[0], &Recorder::disabled())?;
    let (z, report) = with_threads(2, || detector(spec).map(|mut d| d.detect_with_report(&g)))?;
    check_modularity(
        &mut checks,
        report.metric("modularity"),
        quality::modularity(&g, &z),
    );
    // the inputs' mean size, over those the repeats reached
    let reached: Vec<_> = sizes.iter().filter(|s| s.0 > 0).collect();
    let mean = |f: fn(&(usize, usize)) -> usize| {
        reached.iter().map(|s| f(s) as f64).sum::<f64>() / reached.len() as f64
    };
    Ok(Obj::new()
        .num("nodes", mean(|s| s.0))
        .num("edges", mean(|s| s.1))
        .nums("ingest", &ingest)
        .nums("detect_t2", &t2)
        .nums("detect_t1", &t1)
        .nums("modularity", &qs)
        .nums("nmi", &nmis)
        .int("checks", checks.attempted)
        .strs("failures", &checks.failed)
        .done())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_graph::Partition;

    #[test]
    fn corrupted_partitions_fail_the_gate() {
        let truth = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let mut checks = Checks::default();
        check_partition(&mut checks, &truth.clone(), &truth, 0.9);
        assert!(checks.failed.is_empty());
        // one node short
        check_partition(
            &mut checks,
            &Partition::from_vec(vec![0, 0, 0, 1, 1]),
            &truth,
            0.9,
        );
        // every node in one community
        check_partition(&mut checks, &Partition::all_in_one(6), &truth, 0.9);
        assert_eq!(checks.failed.len(), 2, "{:?}", checks.failed);
        check_modularity(&mut checks, Some(0.5), 0.5);
        check_modularity(&mut checks, Some(0.5), 0.49);
        check_modularity(&mut checks, None, 0.49);
        assert_eq!(checks.failed.len(), 4);
    }
}
