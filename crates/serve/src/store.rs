//! The resident graph registry: named graphs held in memory across
//! requests, with buffered edge mutations and periodic CSR rebuilds.
//!
//! The CSR representation is immutable by design (that is what makes the
//! detection kernels fast), so mutation is write-behind: edge inserts and
//! deletes accumulate in an order-preserving buffer and are folded into a
//! fresh CSR either when the buffer reaches [`REBUILD_BATCH`] operations,
//! when a client forces it, or — always — before a detection snapshot, so
//! every detection sees all acknowledged edits.

use crate::wal::WalWriter;
use parcom_graph::relabel::Relabeling;
use parcom_graph::{Graph, GraphBuilder, Node};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Pending-operation count that triggers an automatic rebuild at the end of
/// an edge-batch request. Large enough to amortize the O(n + m) CSR
/// rebuild over many small batches, small enough to keep the fold cheap.
pub const REBUILD_BATCH: usize = 4096;

/// Hard cap on one entry's buffered operations: a request that would push
/// the buffer past this is shed with `429` instead of queued (the bounded
/// admission half of DESIGN.md §16). Since rebuilds fire at
/// [`REBUILD_BATCH`], only a single oversized batch can approach the cap.
pub const MAX_PENDING_OPS: usize = 4 * REBUILD_BATCH;

/// Locks an entry, tolerating poisoning. Every [`GraphEntry`] mutator
/// either commits no state on unwind ([`GraphEntry::rebuild`] builds the
/// new CSR before touching any field) or fails stop (a WAL append wedges
/// its writer), so a panicking request thread leaves the entry consistent
/// and later requests may keep serving it.
pub fn lock_entry(entry: &Mutex<GraphEntry>) -> MutexGuard<'_, GraphEntry> {
    entry.lock().unwrap_or_else(|e| e.into_inner())
}

/// One buffered mutation. Operations are kept in arrival order so that
/// within a window, later operations on an edge override earlier ones
/// (insert-then-delete deletes; delete-then-insert re-inserts).
#[derive(Clone, Copy, Debug)]
pub enum EdgeOp {
    /// Insert the edge, or overwrite its weight if it already exists.
    Insert(Node, Node, f64),
    /// Remove the edge if present (a no-op otherwise).
    Remove(Node, Node),
}

/// A named resident graph plus its mutation buffer.
pub struct GraphEntry {
    graph: Arc<Graph>,
    /// When the resident CSR is a relabeled view (loaded from a `.pcg`
    /// written with `--relabel`, or relabeled at load), the permutation
    /// back to original ids. Detection handlers map partitions through it
    /// before emission, so clients always see original ids.
    relabeling: Option<Arc<Relabeling>>,
    pending: Vec<EdgeOp>,
    /// Bumped on every rebuild; lets clients correlate detection results
    /// with the graph version they ran against.
    generation: u64,
    rebuilds: u64,
    /// Sequence number of the last acknowledged batch: the WAL record
    /// sequence when durable, a plain batch counter otherwise.
    seq: u64,
    /// The write-ahead log this entry appends to before acknowledging a
    /// batch; `None` when the daemon runs without `--state-dir`.
    wal: Option<WalWriter>,
    /// Sticky flag: a rebuild dropped the relabeling permutation (the
    /// mutated CSR no longer matches its degree order). Reported in batch
    /// responses and stats so a lost relabeling never goes unnoticed. On a
    /// 2-core host relabeled views ran PLP at 0.85–1.02× and PLM at
    /// 0.80–1.01× at t2 (DESIGN.md §15), so dropping it costs little.
    relabel_dropped: bool,
    /// Operations folded in since the last checkpoint; drives the
    /// automatic checkpoint cadence.
    ops_since_checkpoint: usize,
}

/// A point-in-time summary of one entry, for listings.
pub struct EntryStats {
    /// Node count of the current CSR.
    pub nodes: usize,
    /// Edge count of the current CSR.
    pub edges: usize,
    /// Buffered operations not yet folded in.
    pub pending: usize,
    /// Current generation (rebuild counter of the resident CSR).
    pub generation: u64,
    /// Total rebuilds since load.
    pub rebuilds: u64,
    /// Whether the resident CSR is a relabeled (cache-ordered) view.
    pub relabeled: bool,
    /// Whether a rebuild dropped a relabeling this entry once had.
    pub relabel_dropped: bool,
    /// Sequence of the last acknowledged batch (WAL record when durable).
    pub seq: u64,
    /// Whether the entry appends to a write-ahead log.
    pub durable: bool,
}

/// Canonicalizes one operation's endpoint order so fold keys match the
/// CSR's `u <= v` edge orientation — applied before WAL append, so the log
/// stores exactly what the buffer holds.
fn canonical(op: EdgeOp) -> EdgeOp {
    match op {
        EdgeOp::Insert(u, v, w) => EdgeOp::Insert(u.min(v), u.max(v), w),
        EdgeOp::Remove(u, v) => EdgeOp::Remove(u.min(v), u.max(v)),
    }
}

impl GraphEntry {
    /// A fresh entry at sequence 0 with no log attached. Public so the
    /// durability layer can persist an entry *before* it becomes visible
    /// in the store.
    pub fn new(graph: Graph, relabeling: Option<Relabeling>) -> Self {
        Self {
            graph: Arc::new(graph),
            relabeling: relabeling.map(Arc::new),
            pending: Vec::new(),
            generation: 0,
            rebuilds: 0,
            seq: 0,
            wal: None,
            relabel_dropped: false,
            ops_since_checkpoint: 0,
        }
    }

    /// Appends a batch of operations, canonicalizing endpoint order so the
    /// fold's keys match the CSR's `u <= v` edge orientation. Returns the
    /// pending count after the append. Low-level: does *not* touch the WAL
    /// or the sequence — recovery replay and tests use it directly; the
    /// request path goes through [`GraphEntry::commit_ops`].
    pub fn buffer_ops(&mut self, ops: impl IntoIterator<Item = EdgeOp>) -> usize {
        for op in ops {
            self.pending.push(canonical(op));
        }
        self.pending.len()
    }

    /// The durable batch path: canonicalizes, appends one WAL record (when
    /// a log is attached) and only then buffers — so by the time the batch
    /// is acknowledged it is already on disk. On a WAL error *nothing* is
    /// buffered and the error propagates (the writer wedges itself;
    /// DESIGN.md §16).
    pub fn commit_ops(&mut self, ops: Vec<EdgeOp>) -> std::io::Result<usize> {
        let ops: Vec<EdgeOp> = ops.into_iter().map(canonical).collect();
        match &mut self.wal {
            Some(wal) => self.seq = wal.append(&ops)?,
            None => self.seq += 1,
        }
        self.ops_since_checkpoint += ops.len();
        self.pending.extend(ops);
        Ok(self.pending.len())
    }

    /// Attaches the write-ahead log this entry will append to. The log's
    /// last sequence must equal the entry's (a fresh log is created at the
    /// entry's checkpoint sequence).
    pub fn attach_wal(&mut self, wal: WalWriter) {
        debug_assert_eq!(wal.last_seq(), self.seq);
        self.wal = Some(wal);
        self.ops_since_checkpoint = 0;
    }

    /// Sequence of the last acknowledged batch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overrides the sequence counter — recovery replay only, where the
    /// sequence comes from the checkpoint header and the replayed records.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Operations folded in since the last checkpoint (drives the
    /// automatic checkpoint cadence).
    pub fn ops_since_checkpoint(&self) -> usize {
        self.ops_since_checkpoint
    }

    /// Flushes the attached log to disk regardless of fsync policy — the
    /// graceful-shutdown path.
    pub fn sync_wal(&mut self) -> std::io::Result<()> {
        match &mut self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Whether the buffer has reached the automatic rebuild threshold.
    pub fn rebuild_due(&self) -> bool {
        self.pending.len() >= REBUILD_BATCH
    }

    /// Folds the pending buffer into a fresh CSR. The final state of each
    /// touched edge is resolved in arrival order first, then applied in one
    /// pass over the collected edge set; node ids beyond the current range
    /// grow the graph. No-op when the buffer is empty.
    ///
    /// Unwind-safe: every field mutation happens *after* the new CSR is
    /// fully built, so a panic mid-rebuild (allocation failure, injected
    /// fault at `serve/store-rebuild`) leaves the resident graph, the
    /// pending buffer and the WAL exactly as they were — the rebuild can
    /// simply be retried. The rebuilt CSR is bit-identical for a given
    /// (graph, buffered-op-sequence) pair regardless of thread count or
    /// rebuild batching, because the builder canonicalizes rows by
    /// `(neighbor, weight bits)`; recovery replay relies on this.
    pub fn rebuild(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // arrival-order resolution: last op per edge wins
        let mut delta: HashMap<(Node, Node), Option<f64>> =
            HashMap::with_capacity(self.pending.len());
        let mut max_node: Node = 0;
        for op in &self.pending {
            match *op {
                EdgeOp::Insert(u, v, w) => {
                    max_node = max_node.max(v);
                    delta.insert((u, v), Some(w));
                }
                EdgeOp::Remove(u, v) => {
                    delta.insert((u, v), None);
                }
            }
        }
        let mut edges = self.graph.par_collect_edges();
        // Edge operations arrive in *original* ids, so a relabeled CSR is
        // un-relabeled before the fold and the relabeling dropped: the
        // permutation is a load-time read optimization, and a mutated graph
        // no longer matches the degree order it was converted under.
        if let Some(r) = &self.relabeling {
            for e in edges.iter_mut() {
                let (u, v) = (r.to_old_id(e.0), r.to_old_id(e.1));
                (e.0, e.1) = (u.min(v), u.max(v));
            }
        }
        // replace or drop existing edges; whatever remains in `delta` after
        // this pass is a genuinely new edge
        edges.retain_mut(|(u, v, w)| match delta.remove(&(*u, *v)) {
            Some(Some(new_w)) => {
                *w = new_w;
                true
            }
            Some(None) => false,
            None => true,
        });
        for ((u, v), value) in delta {
            if let Some(w) = value {
                edges.push((u, v, w));
            }
        }
        let n = self.graph.node_count().max(max_node as usize + 1);
        let mut builder = GraphBuilder::with_capacity(n, edges.len());
        builder.extend_edges(edges);
        parcom_guard::faultpoint!("serve/store-rebuild");
        let rebuilt = builder.build();
        // Commit point: nothing above mutated the entry.
        if self.relabeling.take().is_some() {
            self.relabel_dropped = true;
        }
        self.pending.clear();
        self.graph = Arc::new(rebuilt);
        self.generation += 1;
        self.rebuilds += 1;
    }

    /// The resident CSR (pending operations excluded), its relabeling (if
    /// still valid), and its generation.
    pub fn current(&self) -> (Arc<Graph>, Option<Arc<Relabeling>>, u64) {
        (
            Arc::clone(&self.graph),
            self.relabeling.clone(),
            self.generation,
        )
    }

    /// Listing summary.
    pub fn stats(&self) -> EntryStats {
        EntryStats {
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            pending: self.pending.len(),
            generation: self.generation,
            rebuilds: self.rebuilds,
            relabeled: self.relabeling.is_some(),
            relabel_dropped: self.relabel_dropped,
            seq: self.seq,
            durable: self.wal.is_some(),
        }
    }
}

/// The store: graph name → entry. The outer map lock is held only for
/// lookup/insert/remove; per-entry work (buffering, rebuilds) runs under the
/// entry's own mutex, so a long rebuild of one graph never blocks requests
/// against another.
#[derive(Default)]
pub struct GraphStore {
    inner: RwLock<HashMap<String, Arc<Mutex<GraphEntry>>>>,
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a named graph, with the relabeling stored
    /// alongside it when the graph is a relabeled view. Returns whether a
    /// previous graph of that name was replaced.
    pub fn insert(&self, name: &str, graph: Graph, relabeling: Option<Relabeling>) -> bool {
        self.insert_entry(name, GraphEntry::new(graph, relabeling))
    }

    /// Inserts (or replaces) a pre-built entry — the durability layer
    /// persists an entry (checkpoint + fresh WAL) *before* handing it over,
    /// so a graph is never visible in the store without its on-disk state.
    pub fn insert_entry(&self, name: &str, entry: GraphEntry) -> bool {
        self.inner
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::new(Mutex::new(entry)))
            .is_some()
    }

    /// Evicts a named graph; `false` if it was not resident. In-flight
    /// detections keep their `Arc<Graph>` snapshot alive until they finish.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.write().unwrap().remove(name).is_some()
    }

    /// The entry for `name`, if resident.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<GraphEntry>>> {
        self.inner.read().unwrap().get(name).cloned()
    }

    /// A consistent detection snapshot: flushes the entry's pending buffer
    /// (so the detection sees all acknowledged edits) and returns the CSR
    /// as a cheap `Arc` clone plus its relabeling (when the view is still
    /// relabeled) and generation. The entry lock is released before
    /// detection starts — concurrent mutations build new CSRs while old
    /// snapshots keep running.
    pub fn snapshot(&self, name: &str) -> Option<(Arc<Graph>, Option<Arc<Relabeling>>, u64)> {
        let entry = self.get(name)?;
        let mut entry = lock_entry(&entry);
        entry.rebuild();
        Some(entry.current())
    }

    /// Sorted names with per-entry stats.
    pub fn list(&self) -> Vec<(String, EntryStats)> {
        let mut rows: Vec<(String, EntryStats)> = self
            .inner
            .read()
            .unwrap()
            .iter()
            .map(|(name, entry)| (name.clone(), lock_entry(entry).stats()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// Whether no graphs are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(Node, Node)> = (0..n as Node - 1).map(|u| (u, u + 1)).collect();
        GraphBuilder::from_edges(n, &edges)
    }

    #[test]
    fn ops_apply_in_arrival_order() {
        let store = GraphStore::new();
        store.insert("p", path_graph(4), None);
        let entry = store.get("p").unwrap();
        {
            let mut e = entry.lock().unwrap();
            // insert-then-remove cancels; remove-then-insert survives
            e.buffer_ops([
                EdgeOp::Insert(0, 3, 1.0),
                EdgeOp::Remove(3, 0),
                EdgeOp::Remove(1, 2),
                EdgeOp::Insert(2, 1, 5.0),
            ]);
            e.rebuild();
        }
        let (g, _, generation) = store.snapshot("p").unwrap();
        assert_eq!(generation, 1);
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(1, 2), Some(5.0));
    }

    #[test]
    fn inserts_grow_the_node_range() {
        let store = GraphStore::new();
        store.insert("p", path_graph(3), None);
        let entry = store.get("p").unwrap();
        entry
            .lock()
            .unwrap()
            .buffer_ops([EdgeOp::Insert(2, 9, 2.0)]);
        let (g, _, _) = store.snapshot("p").unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_weight(2, 9), Some(2.0));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn snapshot_flushes_and_eviction_keeps_snapshots_alive() {
        let store = GraphStore::new();
        store.insert("p", path_graph(5), None);
        let entry = store.get("p").unwrap();
        entry.lock().unwrap().buffer_ops([EdgeOp::Remove(0, 1)]);
        let (g, _, generation) = store.snapshot("p").unwrap();
        assert_eq!(generation, 1);
        assert!(!g.has_edge(0, 1));
        assert!(store.remove("p"));
        assert!(!store.remove("p"));
        // the snapshot outlives the eviction
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn mutation_unrelabels_and_drops_the_relabeling() {
        // A star so the degree order is not the identity: hub 3 gets new id 0.
        let g = GraphBuilder::from_edges(5, &[(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)]);
        let r = Relabeling::degree_ordered(&g);
        let relabeled = r.apply(&g);
        let store = GraphStore::new();
        store.insert("s", relabeled, Some(r));
        let (_, rel, _) = store.snapshot("s").unwrap();
        assert!(rel.is_some(), "unmutated snapshot keeps the relabeling");
        assert!(store.get("s").unwrap().lock().unwrap().stats().relabeled);

        // Ops arrive in original ids: connect 2-4 and drop the 0-1 chord.
        let entry = store.get("s").unwrap();
        entry
            .lock()
            .unwrap()
            .buffer_ops([EdgeOp::Insert(2, 4, 2.0), EdgeOp::Remove(0, 1)]);
        let (g2, rel, generation) = store.snapshot("s").unwrap();
        assert_eq!(generation, 1);
        assert!(rel.is_none(), "mutation invalidates the relabeling");
        // The rebuilt CSR is back in original ids.
        assert_eq!(g2.edge_weight(2, 4), Some(2.0));
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(3, 0));
        assert_eq!(g2.degree(3), 4);
    }

    #[test]
    fn weight_overwrite_replaces_instead_of_accumulating() {
        let store = GraphStore::new();
        store.insert("p", path_graph(3), None);
        let entry = store.get("p").unwrap();
        entry
            .lock()
            .unwrap()
            .buffer_ops([EdgeOp::Insert(0, 1, 7.5)]);
        let (g, _, _) = store.snapshot("p").unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(7.5));
        assert_eq!(g.edge_count(), 2);
    }
}
