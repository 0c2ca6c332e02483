//! The serve workload's client side: boots `parcom serve` as a child
//! process, drives closed-loop detects and open-loop edge batches over two
//! connections, then kills the daemon with SIGKILL and times recovery.

use crate::child::Checks;
use crate::client::{Client, Reply};
use crate::inputs::{EdgeStream, BATCH_OPS, SERVE_SPEC};
use crate::trace::Tracer;
use parcom_graph::{Graph, Partition};
use parcom_obs::json::{self, Value};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Longest wait for a daemon to answer `/readyz` with 200.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The resident graph's name.
const GRAPH: &str = "g";

/// A running `parcom serve` child; killed and reaped on drop.
pub struct Daemon {
    child: Child,
}

impl Daemon {
    pub fn spawn(socket: &Path, state: &Path, log: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let log = std::fs::File::create(log).map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("daemon")
            .args(["serve", "--fsync", "always", "--socket"])
            .arg(socket)
            .arg("--state-dir")
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        Ok(Self { child })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `/readyz` until it answers 200.
    pub fn wait_ready(&mut self, socket: &Path) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(mut c) = Client::connect(socket) {
                if matches!(c.request("GET", "/readyz", ""), Ok(r) if r.status == 200) {
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited before ready: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon not ready in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One closed-loop or open-loop request, with its timings in seconds.
struct Sample {
    latency: f64,
    /// Detects: the report's wall time inside the reply. Edge batches: how
    /// late the writer sent the batch.
    extra: f64,
    /// Detects: reply size.
    bytes: f64,
}

/// The detect loop's samples, checks and `(start, end)` request spans.
type ReaderOut = (Vec<Sample>, Checks, Vec<(f64, f64)>);
/// The edge writer's samples, checks, last acked seq, checkpoints, sheds.
type WriterOut = (Vec<Sample>, Checks, u64, u64, u64);

/// Latency and lateness of an open-loop request, from the time it was due:
/// a stall delays every request queued behind it, and that wait counts.
pub fn open_loop_timing(due: f64, sent: f64, acked: f64) -> (f64, f64) {
    (acked - due, (sent - due).max(0.0))
}

/// What a session measured.
#[derive(Default)]
pub struct Session {
    pub setup_s: Vec<f64>,
    /// Re-PUTs of the graph into the running daemon.
    pub put_s: Vec<f64>,
    pub rtt_ms: Vec<f64>,
    pub detect_ms: Vec<f64>,
    pub inner_ms: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub mutate_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub checkpoints: u64,
    pub rebuilds: u64,
    pub shed: u64,
    pub recover_s: Vec<f64>,
    /// Peak RSS of each recovered daemon after one detect.
    pub peak_rss_mb: Vec<f64>,
    /// Peak RSS of the daemon that carried the load.
    pub load_peak_rss_mb: f64,
    pub load_seconds: f64,
    pub final_graph: Option<Graph>,
    pub final_partition: Option<Partition>,
    pub checks: Checks,
}

impl Session {
    /// Adds a later session's samples and counts to this one; the later
    /// session's final graph and partition replace this one's.
    pub fn absorb(&mut self, later: Session) {
        for (all, more) in [
            (&mut self.setup_s, later.setup_s),
            (&mut self.put_s, later.put_s),
            (&mut self.rtt_ms, later.rtt_ms),
            (&mut self.detect_ms, later.detect_ms),
            (&mut self.inner_ms, later.inner_ms),
            (&mut self.resp_bytes, later.resp_bytes),
            (&mut self.mutate_ms, later.mutate_ms),
            (&mut self.late_ms, later.late_ms),
            (&mut self.recover_s, later.recover_s),
            (&mut self.peak_rss_mb, later.peak_rss_mb),
        ] {
            all.extend(more);
        }
        self.checkpoints += later.checkpoints;
        self.rebuilds += later.rebuilds;
        self.shed += later.shed;
        self.load_peak_rss_mb = self.load_peak_rss_mb.max(later.load_peak_rss_mb);
        self.load_seconds += later.load_seconds;
        self.final_graph = later.final_graph;
        self.final_partition = later.final_partition;
        self.checks.attempted += later.checks.attempted;
        self.checks.failed.extend(later.checks.failed);
    }
}

/// Session shape.
pub struct Plan<'a> {
    pub work: &'a Path,
    pub metis: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    /// Edge batches per second of the open-loop writer.
    pub rate: f64,
    pub boots: usize,
    /// Graph PUTs timed on the last boot (the first is part of set-up).
    pub puts: usize,
    pub restarts: usize,
}

fn body_detect(partition: bool) -> String {
    let mut out = String::from("{\"graph\":");
    json::write_str(&mut out, GRAPH);
    out.push_str(",\"spec\":");
    json::write_str(&mut out, SERVE_SPEC);
    out.push_str(&format!(",\"include_partition\":{partition}}}"));
    out
}

fn graph_stats(c: &mut Client) -> Result<Value, String> {
    let r = c.request("GET", "/graphs", "").map_err(|e| e.to_string())?;
    let v = r.json()?;
    v.get("graphs")
        .and_then(Value::as_array)
        .and_then(|g| g.first())
        .cloned()
        .ok_or_else(|| format!("no resident graph: {}", r.text()))
}

fn stat(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// The `"partition":[...]` array of a detect reply, verbatim.
fn partition_bytes(reply: &Reply) -> Option<&[u8]> {
    let text = reply.text();
    let start = text.find("\"partition\":[")? + "\"partition\":".len();
    let end = start + text[start..].find(']')? + 1;
    Some(&reply.body[start..end])
}

fn detect_checked(c: &mut Client, checks: &mut Checks, body: &str) -> Result<(Reply, f64), String> {
    let start = Instant::now();
    let r = c
        .request("POST", "/detect", body)
        .map_err(|e| e.to_string())?;
    let latency = start.elapsed().as_secs_f64();
    let v = r.json().ok();
    let termination = v
        .as_ref()
        .and_then(|v| v.get("termination"))
        .and_then(Value::as_str)
        .unwrap_or("");
    checks.check(r.status == 200 && termination == "converged", || {
        format!("detect answered {} ({termination})", r.status)
    });
    Ok((r, latency))
}

/// Wall time of the run report embedded in a detect reply.
fn inner_seconds(reply: &Reply) -> f64 {
    reply
        .json()
        .ok()
        .and_then(|v| {
            v.get("report")?.get("phases")?.as_array().map(|ps| {
                ps.iter()
                    .filter_map(|p| p.get("wall_seconds")?.as_f64())
                    .sum()
            })
        })
        .unwrap_or(f64::NAN)
}

/// Runs one session. With a tracer, every request and phase is a span.
pub fn run(
    plan: &Plan,
    g: &Graph,
    truth: &Partition,
    mu: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Session, String> {
    let mut s = Session::default();
    let socket = plan.work.join("serve.sock");
    let state = plan.work.join("state");
    let log = plan.work.join("daemon.log");
    let mut put_body = String::from("{\"path\":");
    json::write_str(&mut put_body, &plan.metis.to_string_lossy());
    put_body.push('}');

    // Set-up: boot to ready plus the graph PUT, several times from a fresh
    // state dir; the last daemon stays up for the load.
    let mut daemon = None;
    for boot in 0..plan.boots {
        if let Some(d) = daemon.take() {
            Daemon::kill(d);
        }
        let _ = std::fs::remove_dir_all(&state);
        let start = Instant::now();
        let mut d = Daemon::spawn(&socket, &state, &log)?;
        d.wait_ready(&socket)?;
        let mut c = Client::connect(&socket).map_err(|e| e.to_string())?;
        let r = c
            .request("PUT", &format!("/graphs/{GRAPH}"), &put_body)
            .map_err(|e| e.to_string())?;
        s.checks.check(r.status == 201, || {
            format!("PUT answered {}: {}", r.status, r.text())
        });
        s.setup_s.push(start.elapsed().as_secs_f64());
        if let Some(t) = tracer.as_deref_mut() {
            t.next_run();
            let at = t.offset_of(start);
            t.record(&format!("serve.boot/{boot}"), at, at + s.setup_s[boot]);
        }
        daemon = Some(d);
    }
    let mut daemon = daemon.ok_or("no boot")?;
    let mut c = Client::connect(&socket).map_err(|e| e.to_string())?;
    // Ingest into the running daemon: re-PUT the graph (each replaces the
    // resident one and rewrites its durable state).
    for _ in 0..plan.puts {
        let start = Instant::now();
        let r = c
            .request("PUT", &format!("/graphs/{GRAPH}"), &put_body)
            .map_err(|e| e.to_string())?;
        s.put_s.push(start.elapsed().as_secs_f64());
        s.checks.check(r.status == 200, || {
            format!("re-PUT answered {}: {}", r.status, r.text())
        });
    }
    for _ in 0..50 {
        let start = Instant::now();
        let r = c
            .request("GET", "/healthz", "")
            .map_err(|e| e.to_string())?;
        s.rtt_ms.push(start.elapsed().as_secs_f64() * 1e3);
        s.checks
            .check(r.status == 200, || format!("healthz answered {}", r.status));
    }
    let before = graph_stats(&mut c)?;

    // Load: closed-loop detects on one connection, open-loop edge batches
    // at a fixed rate on the other.
    let mut stream = EdgeStream::new(g, truth, mu, plan.seed);
    let total = (plan.seconds * plan.rate).round() as usize;
    let batches: Vec<String> = (0..total)
        .map(|_| stream.next_batch(BATCH_OPS).to_json())
        .collect();
    let done = AtomicBool::new(false);
    let origin = Instant::now();
    let traced = tracer.is_some();
    let (detects, writes) = std::thread::scope(|scope| {
        let socket = &socket;
        let done = &done;
        let reader = scope.spawn(move || -> Result<ReaderOut, String> {
            let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
            let (mut out, mut checks, mut spans) = (Vec::new(), Checks::default(), Vec::new());
            let body = body_detect(false);
            while !done.load(Ordering::Relaxed) {
                let at = origin.elapsed().as_secs_f64();
                let (r, latency) = detect_checked(&mut c, &mut checks, &body)?;
                out.push(Sample {
                    latency,
                    extra: inner_seconds(&r),
                    bytes: r.body.len() as f64,
                });
                if traced {
                    spans.push((at, at + latency));
                }
            }
            Ok((out, checks, spans))
        });
        let writer = scope.spawn(move || -> Result<WriterOut, String> {
            let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
            let (mut out, mut checks) = (Vec::new(), Checks::default());
            let (mut last_seq, mut checkpoints, mut shed) = (0u64, 0u64, 0u64);
            for (i, body) in batches.iter().enumerate() {
                let due = i as f64 / plan.rate;
                let now = origin.elapsed().as_secs_f64();
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let sent = origin.elapsed().as_secs_f64();
                let r = c
                    .request("POST", &format!("/graphs/{GRAPH}/edges"), body)
                    .map_err(|e| e.to_string())?;
                let (latency, late) = open_loop_timing(due, sent, origin.elapsed().as_secs_f64());
                if r.status == 429 || r.status == 503 {
                    shed += 1;
                }
                let v = r.json().ok();
                let seq = v
                    .as_ref()
                    .and_then(|v| v.get("seq"))
                    .and_then(Value::as_u64);
                checks.check(r.status == 200 && seq.is_some_and(|s| s > last_seq), || {
                    format!(
                        "edge batch answered {} with seq {seq:?} after {last_seq}",
                        r.status
                    )
                });
                last_seq = seq.unwrap_or(last_seq);
                if v.as_ref()
                    .and_then(|v| v.get("checkpointed"))
                    .and_then(Value::as_bool)
                    == Some(true)
                {
                    checkpoints += 1;
                }
                out.push(Sample {
                    latency,
                    extra: late,
                    bytes: 0.0,
                });
            }
            done.store(true, Ordering::Relaxed);
            Ok((out, checks, last_seq, checkpoints, shed))
        });
        let w = writer.join().map_err(|_| "writer panicked".to_string());
        done.store(true, Ordering::Relaxed);
        let r = reader.join().map_err(|_| "reader panicked".to_string());
        (r.and_then(|x| x), w.and_then(|x| x))
    });
    s.load_seconds = origin.elapsed().as_secs_f64();
    let (detects, detect_checks, detect_spans) = detects?;
    let (writes, write_checks, last_seq, checkpoints, shed) = writes?;
    for checks in [detect_checks, write_checks] {
        s.checks.attempted += checks.attempted;
        s.checks.failed.extend(checks.failed);
    }
    for d in &detects {
        s.detect_ms.push(d.latency * 1e3);
        s.inner_ms.push(d.extra * 1e3);
        s.resp_bytes.push(d.bytes);
    }
    for w in &writes {
        s.mutate_ms.push(w.latency * 1e3);
        s.late_ms.push(w.extra * 1e3);
    }
    (s.checkpoints, s.shed) = (checkpoints, shed);
    if let Some(t) = tracer.as_deref_mut() {
        t.next_run();
        let off = t.offset_of(origin);
        for (a, b) in detect_spans {
            t.record("serve.detect", off + a, off + b);
        }
        for (i, w) in writes.iter().enumerate() {
            let due = off + i as f64 / plan.rate;
            t.record("serve.edges", due, due + w.latency);
        }
    }

    // Quiesced state: every batch acknowledged; take the reference result.
    let after = graph_stats(&mut c)?;
    s.rebuilds = stat(&after, "rebuilds").saturating_sub(stat(&before, "rebuilds"));
    let expected = stream.graph();
    s.checks.check(stat(&after, "seq") == last_seq, || {
        format!(
            "daemon seq {} != last acked {last_seq}",
            stat(&after, "seq")
        )
    });
    let (reference, _) = detect_checked(&mut c, &mut s.checks, &body_detect(true))?;
    let reference_part = partition_bytes(&reference)
        .map(<[u8]>::to_vec)
        .unwrap_or_default();
    s.checks.check(
        stat(&after, "edges") == expected.edge_count() as u64
            && stat(&after, "nodes") == expected.node_count() as u64,
        || "daemon graph differs from the acknowledged edit stream".into(),
    );
    s.load_peak_rss_mb = crate::util::peak_rss_mb(Some(daemon.pid()));
    drop(c);

    // Crash and recover, several times, on the same state dir. Each
    // recovered daemon must hold the acknowledged state and answer the
    // reference detect byte for byte; its peak RSS after that detect is
    // one sample of the daemon's footprint.
    for restart in 0..plan.restarts {
        daemon.kill();
        let start = Instant::now();
        daemon = Daemon::spawn(&socket, &state, &log)?;
        daemon.wait_ready(&socket)?;
        s.recover_s.push(start.elapsed().as_secs_f64());
        if let Some(t) = tracer.as_deref_mut() {
            let at = t.offset_of(start);
            t.record(
                &format!("serve.recover/{restart}"),
                at,
                at + s.recover_s[restart],
            );
        }
        let mut c = Client::connect(&socket).map_err(|e| e.to_string())?;
        let recovered = stat(&graph_stats(&mut c)?, "seq");
        s.checks.check(recovered >= last_seq, || {
            format!("recovered seq {recovered} < last acked {last_seq}")
        });
        let (again, _) = detect_checked(&mut c, &mut s.checks, &body_detect(true))?;
        s.checks.check(
            !reference_part.is_empty() && partition_bytes(&again) == Some(&reference_part[..]),
            || "partition after recovery differs from the one before the kill".into(),
        );
        s.peak_rss_mb
            .push(crate::util::peak_rss_mb(Some(daemon.pid())));
    }
    daemon.kill();

    let labels: Option<Vec<u32>> =
        parcom_obs::json::parse(std::str::from_utf8(&reference_part).unwrap_or("[]"))
            .ok()
            .and_then(|v| {
                v.as_array().map(|a| {
                    a.iter()
                        .filter_map(|x| x.as_u64().map(|x| x as u32))
                        .collect()
                })
            });
    s.final_partition = labels.map(Partition::from_vec);
    s.final_graph = Some(expected);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 10 ops due every 10 ms; the server stalls 35 ms on op 2, then
        // answers in 1 ms. The writer sends each op when due or, when
        // behind, as soon as the previous ack arrives.
        let interval = 0.010;
        let service = |i: usize| if i == 2 { 0.035 } else { 0.001 };
        let mut free_at: f64 = 0.0;
        let mut rows = Vec::new();
        for i in 0..10 {
            let due = i as f64 * interval;
            let sent = due.max(free_at);
            let acked = sent + service(i);
            free_at = acked;
            rows.push(open_loop_timing(due, sent, acked));
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // before the stall: 1 ms, never late
        assert!(close(rows[1].0, 0.001) && close(rows[1].1, 0.0));
        assert!(close(rows[2].0, 0.035));
        // op 3 was due at 30 ms but could only go at 55 ms: late by 25 ms,
        // and its latency counts that wait, not just the 1 ms of service
        assert!(close(rows[3].1, 0.025) && close(rows[3].0, 0.026));
        assert!(close(rows[4].1, 0.016) && close(rows[4].0, 0.017));
        assert!(close(rows[5].1, 0.007) && close(rows[5].0, 0.008));
        // caught up again
        assert!(close(rows[6].1, 0.0) && close(rows[6].0, 0.001));
    }
}
