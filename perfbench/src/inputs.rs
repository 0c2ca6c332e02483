//! Workload inputs, all derived from the workload seed: the LFR instances
//! (METIS text plus planted partition) and the serve workload's stream of
//! edge batches. The same seed gives byte-identical inputs.

use parcom_generators::LfrParams;
use parcom_graph::{Graph, GraphBuilder, Partition};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold METIS parse + default `plmr` on standard LFR.
    LfrPlmrText,
    /// `.pcg` reopen + default `plp` on heavy-tailed LFR.
    WebPlpPcg,
    /// Mixed detect and edge-batch traffic against `parcom serve`.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::LfrPlmrText, Self::WebPlpPcg, Self::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Self::LfrPlmrText => "lfr-plmr-text",
            Self::WebPlpPcg => "web-plp-pcg",
            Self::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The LFR instance the workload detects on.
    pub fn params(self) -> LfrParams {
        match self {
            // standard LFR (degrees 10-50, communities 20-100): ~2.2M edges
            Self::LfrPlmrText => LfrParams::benchmark(250_000, 0.3),
            // heavy-tailed: tau1 = 2.2, degrees 5-2000, communities 20-2000: ~3.7M edges
            Self::WebPlpPcg => LfrParams {
                degree_exponent: 2.2,
                min_degree: 5,
                max_degree: 2000,
                max_community: 2000,
                ..LfrParams::benchmark(400_000, 0.3)
            },
            // one resident graph of ~100k edges
            Self::ServeMixed => SERVE_PARAMS,
        }
    }

    /// The detector spec the workload runs (wire form).
    pub fn spec(self) -> &'static str {
        match self {
            Self::LfrPlmrText => "plmr",
            Self::WebPlpPcg => "plp",
            Self::ServeMixed => SERVE_SPEC,
        }
    }

    /// Graphs of the workload's kind that a run's repeats take in turn:
    /// the run's own and more from seeds derived from it. A detector's
    /// sweep count is a property of the graph (PLMR at t1 needs 11 to 16
    /// level-0 sweeps on standard LFR-250k graphs, fixed per graph), so on
    /// one graph a run would measure that graph's luck.
    pub fn instances(self) -> u64 {
        match self {
            Self::LfrPlmrText => 4,
            Self::WebPlpPcg => 3,
            Self::ServeMixed => 8,
        }
    }

    /// The NMI against the planted partition below which a result fails
    /// the correctness gate.
    pub fn nmi_floor(self) -> f64 {
        match self {
            Self::LfrPlmrText | Self::ServeMixed => 0.75,
            Self::WebPlpPcg => 0.9,
        }
    }
}

/// The serve workload's resident graph (also the input of every traced
/// run's daemon probe).
pub const SERVE_PARAMS: LfrParams = LfrParams {
    n: 11_500,
    mu: 0.3,
    degree_exponent: 2.5,
    min_degree: 10,
    max_degree: 50,
    community_exponent: 1.5,
    min_community: 20,
    max_community: 100,
};

/// The deterministic coloring move path the serve workload detects with.
pub const SERVE_SPEC: &str = "plm:move=coloring,seed=1";

/// Operations per edge batch of the serve workload.
pub const BATCH_OPS: usize = 64;

/// One edge batch: inserts apply before removes (the daemon's order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeBatch {
    pub insert: Vec<(u32, u32)>,
    pub remove: Vec<(u32, u32)>,
}

impl EdgeBatch {
    /// The `POST /graphs/{name}/edges` body.
    pub fn to_json(&self) -> String {
        let rows = |edges: &[(u32, u32)]| {
            edges
                .iter()
                .map(|(u, v)| format!("[{u},{v}]"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"insert\":[{}],\"remove\":[{}]}}",
            rows(&self.insert),
            rows(&self.remove)
        )
    }
}

/// Seeded stream of edge batches that keeps the graph's size and planted
/// structure: each batch removes half its operations' worth of existing
/// edges and inserts as many new ones drawn from the planted model (inside
/// the endpoint's community with probability 1 - mu). Tracks the current
/// edge set, so the benchmark knows the graph every acknowledged prefix of
/// the stream produces.
pub struct EdgeStream {
    rng: SmallRng,
    n: u32,
    mu: f64,
    community: Vec<u32>,
    members: Vec<Vec<u32>>,
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
}

impl EdgeStream {
    pub fn new(g: &Graph, truth: &Partition, mu: f64, seed: u64) -> Self {
        let community = truth.as_slice().to_vec();
        let mut members = vec![Vec::new(); truth.upper_bound() as usize];
        for (v, &c) in community.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        let mut edges = Vec::with_capacity(g.edge_count());
        g.for_edges(|u, v, _| {
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        });
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_ed6e),
            n: g.node_count() as u32,
            mu,
            community,
            members,
            edges,
            index,
        }
    }

    fn insert_edge(&mut self, e: (u32, u32)) {
        self.index.insert(e, self.edges.len());
        self.edges.push(e);
    }

    fn remove_at(&mut self, i: usize) -> (u32, u32) {
        let e = self.edges.swap_remove(i);
        self.index.remove(&e);
        if let Some(&moved) = self.edges.get(i) {
            self.index.insert(moved, i);
        }
        e
    }

    fn draw_new_edge(&mut self, exclude: &[(u32, u32)]) -> (u32, u32) {
        loop {
            let u = self.rng.gen_range(0..self.n);
            let v = if self.rng.gen_bool(1.0 - self.mu) {
                let own = &self.members[self.community[u as usize] as usize];
                own[self.rng.gen_range(0..own.len())]
            } else {
                self.rng.gen_range(0..self.n)
            };
            let e = (u.min(v), u.max(v));
            if u != v && !self.index.contains_key(&e) && !exclude.contains(&e) {
                return e;
            }
        }
    }

    /// The next batch of `ops` operations (half inserts, half removes).
    pub fn next_batch(&mut self, ops: usize) -> EdgeBatch {
        let mut batch = EdgeBatch::default();
        for _ in 0..ops / 2 {
            let i = self.rng.gen_range(0..self.edges.len());
            batch.remove.push(self.remove_at(i));
        }
        // No insert may re-add an edge this batch removes: the daemon
        // applies removes last, so the pair would cancel.
        for _ in 0..ops - ops / 2 {
            let e = self.draw_new_edge(&batch.remove);
            self.insert_edge(e);
            batch.insert.push(e);
        }
        batch
    }

    /// The graph the stream has produced so far.
    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.n as usize, self.edges.len());
        b.extend_edges(self.edges.iter().map(|&(u, v)| (u, v, 1.0)).collect());
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: Workload) -> LfrParams {
        LfrParams {
            n: 3_000,
            ..w.params()
        }
    }

    fn metis_and_pcg(params: LfrParams, seed: u64) -> (Vec<u8>, Vec<u8>, Vec<u32>) {
        let (g, truth) = parcom_generators::lfr(params, seed);
        let mut metis = Vec::new();
        parcom_io::metis::write_metis_to(&g, &mut metis).unwrap();
        // the .pcg the benchmark converts to is built from the parsed text
        let parsed = parcom_io::metis::read_metis_bytes(&metis).unwrap();
        let pcg = parcom_io::binfmt::pcg_bytes(&parsed, None).unwrap();
        (metis, pcg, truth.into_vec())
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for w in [Workload::LfrPlmrText, Workload::WebPlpPcg] {
            let a = metis_and_pcg(small(w), 7);
            let b = metis_and_pcg(small(w), 7);
            assert!(a == b, "{} inputs differ under one seed", w.name());
            let c = metis_and_pcg(small(w), 8);
            assert!(a.0 != c.0, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn edge_stream_is_seeded_and_keeps_the_graph_size() {
        let (g, truth) = parcom_generators::lfr(SERVE_PARAMS, 3);
        let mut a = EdgeStream::new(&g, &truth, 0.3, 3);
        let mut b = EdgeStream::new(&g, &truth, 0.3, 3);
        for _ in 0..50 {
            let (x, y) = (a.next_batch(BATCH_OPS), b.next_batch(BATCH_OPS));
            assert_eq!(x, y);
            assert_eq!(x.insert.len() + x.remove.len(), BATCH_OPS);
            for e in &x.insert {
                assert!(!x.remove.contains(e) && e.0 < e.1);
            }
        }
        let after = a.graph();
        assert_eq!(after.edge_count(), g.edge_count());
        assert_eq!(after.node_count(), g.node_count());
        assert!(parcom_io::metis::write_metis_to(&after, std::io::sink()).is_ok());
    }
}
