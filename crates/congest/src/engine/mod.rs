//! The round engine.
//!
//! [`crate::Simulator`] runs its rounds through [`run`]: the nodes are cut
//! into `S` contiguous CSR shards (`S` = [`crate::SimConfig::threads`],
//! capped at the node count). One shard runs inline on the caller's
//! thread; more shards run on `std::thread::scope` workers that meet at a
//! barrier after every phase. Both use the same per-shard phase code and
//! the same per-phase decision, so there is one round loop, not two.
//!
//! **Determinism is the invariant.** Every shard count must produce
//! byte-identical [`crate::SimStats`], [`crate::RoundTrace`] sequences,
//! node states, and errors for every protocol. The threaded case earns
//! this by construction rather than by locking discipline:
//!
//! * each directed edge has exactly one sender, so the per-slot
//!   duplicate-send stamp can live with the *sender's* shard (indexed by
//!   sender-side CSR position, which the `mirror` array maps bijectively
//!   onto recipient-side slots) — no two shards ever contend for a slot;
//! * cross-shard messages travel through per-shard staging buffers and are
//!   merged at the round barrier; since every slot is written at most once
//!   per round, the merge order cannot affect buffer contents;
//! * everything else an outside observer can see is an order-independent
//!   reduction: message/bit counters are sums, `max_message_bits` is a
//!   max, and per-round worklists are sorted before polling;
//! * errors are reported from the lowest-numbered shard of the earliest
//!   round, which (shards being contiguous, ascending node ranges) is
//!   exactly the node a one-shard run fails on first.

mod sharded;

pub(crate) use sharded::run;

use lcs_graph::Graph;
use lcs_obs::Obs;

use crate::{NodeContext, SimStats};

/// Emits the thread-invariant counters of one successful run: rounds,
/// messages, bits, and active-node polls, identical for every shard count
/// by the determinism invariant. (`max_message_bits` is a max, not a sum,
/// so it lives in a gauge.)
pub(crate) fn record_run(obs: &Obs, stats: &SimStats, polls: u64) {
    obs.counter_add("engine/runs", 1);
    obs.counter_add("engine/rounds", stats.rounds);
    obs.counter_add("engine/messages", stats.messages);
    obs.counter_add("engine/bits", stats.total_bits);
    obs.counter_add("engine/polls", polls);
    obs.gauge_max("engine/max_message_bits", stats.max_message_bits as u64);
}

/// The read-only message-plane topology every shard indexes into: CSR slot
/// offsets plus the sender-position → recipient-slot `mirror` map. One slot
/// per directed edge, laid out in the graph's CSR order.
pub(crate) struct Topology {
    /// CSR offsets mirroring the graph's (`offset[v]..offset[v + 1]` are
    /// node `v`'s recipient-side slots). Length `n + 1`.
    pub(crate) offset: Vec<u32>,
    /// `mirror[p]`: for the sender-side position `p` (node `v`'s adjacency
    /// entry pointing at `w`), the recipient-side slot (`w`'s entry
    /// pointing back at `v`). Posting is one indexed store.
    pub(crate) mirror: Vec<u32>,
}

impl Topology {
    pub(crate) fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offset: Vec<u32> = Vec::with_capacity(n + 1);
        offset.push(0);
        for v in graph.nodes() {
            let last = *offset.last().expect("offset starts nonempty");
            offset.push(last + graph.degree(v) as u32);
        }
        let slots = *offset.last().expect("offset is nonempty") as usize;

        // slot_of[e] = recipient-side slot of edge e at [e.u, e.v].
        let mut slot_of = vec![[0u32; 2]; graph.edge_count()];
        for v in graph.nodes() {
            let base = offset[v.index()];
            for (k, &e) in graph.incident_edge_ids(v).iter().enumerate() {
                let side = usize::from(graph.edge(e).v == v);
                slot_of[e.index()][side] = base + k as u32;
            }
        }
        let mut mirror = vec![0u32; slots];
        for v in graph.nodes() {
            let base = offset[v.index()] as usize;
            let neighbors = graph.neighbor_ids(v);
            for (k, &e) in graph.incident_edge_ids(v).iter().enumerate() {
                let w = neighbors[k];
                mirror[base + k] = slot_of[e.index()][usize::from(graph.edge(e).v == w)];
            }
        }

        Topology { offset, mirror }
    }
}

/// Builds the per-node contexts (borrowed CSR views) in node order.
pub(crate) fn build_contexts(graph: &Graph) -> Vec<NodeContext<'_>> {
    let n = graph.node_count();
    graph
        .nodes()
        .map(|v| NodeContext::new(v, graph.neighbor_ids(v), graph.incident_edge_ids(v), n))
        .collect()
}
