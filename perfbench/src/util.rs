//! Small shared helpers: `key=value` arguments, a JSON object builder,
//! peak RSS, and the CLI's ingest and detector construction.

use parcom_core::{Budget, CommunityDetector, DetectorSpec};
use parcom_graph::Graph;
use parcom_obs::json::{self, Value};
use parcom_obs::Recorder;
use std::path::Path;

/// `key=value` arguments of a child task.
pub struct Kv(Vec<(String, String)>);

impl Kv {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        args.iter()
            .map(|a| {
                a.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .ok_or_else(|| format!("expected key=value, got `{a}`"))
            })
            .collect::<Result<_, _>>()
            .map(Self)
    }

    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing argument `{key}`"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| format!("bad value `{raw}` for `{key}`"))
    }
}

/// Builds one JSON object.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    pub fn new() -> Self {
        Self(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        json::write_str(&mut self.0, k);
        self.0.push(':');
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        json::write_f64(&mut self.0, v);
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.0.push_str(&v.to_string());
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        json::write_str(&mut self.0, v);
        self
    }

    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.0.push_str(v);
        self
    }

    pub fn nums(mut self, k: &str, vs: &[f64]) -> Self {
        self.key(k);
        self.0.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            json::write_f64(&mut self.0, *v);
        }
        self.0.push(']');
        self
    }

    pub fn strs(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.0.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            json::write_str(&mut self.0, v);
        }
        self.0.push(']');
        self
    }

    pub fn done(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Numbers of a JSON array member (empty when absent).
pub fn nums(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// A numeric member, or an error naming it.
pub fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result lacks `{key}`"))
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CLI's ingest path: sniff the format, then parse METIS text or
/// reopen a `.pcg`, unbudgeted.
pub fn load(path: &Path, recorder: &Recorder) -> Result<Graph, String> {
    parcom_io::load_graph_auto(path, recorder, &Budget::unlimited())
        .map(|l| l.graph)
        .map_err(|e| format!("loading {}: {e}", path.display()))
}

/// The CLI's detector construction: the spec through the registry, seed 1
/// unless the spec sets its own.
pub fn detector(spec: &str) -> Result<Box<dyn CommunityDetector + Send>, String> {
    let parsed = DetectorSpec::parse(spec).map_err(|e| e.to_string())?;
    let parsed = if spec.contains("seed=") {
        parsed
    } else {
        parsed.with_seed(1)
    };
    parsed.build().map_err(|e| e.to_string())
}
