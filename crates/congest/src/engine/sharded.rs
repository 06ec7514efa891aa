//! The round engine: the synchronous round loop over `S` contiguous node
//! shards. One shard runs inline on the caller's thread; more shards run
//! on one `std::thread::scope` worker each.
//!
//! # Shard layout
//!
//! Shard boundaries come from [`lcs_graph::ShardMap::by_volume`], so every
//! shard owns a contiguous node range *and therefore* a contiguous range of
//! the CSR edge-slot arrays (`Topology::offset` is monotone in node id).
//! Each shard privately owns, for its range: the protocol states, both
//! edge-slot mailbox buffers, inbox counters, worklists, its duplicate-send
//! stamps (sender-position indexed — a directed edge has exactly one
//! sender, so stamps never leave the sender's shard), and its timer heap of
//! `next_wake` entries.
//!
//! # Cross-shard staging and the barrier merge
//!
//! A post whose recipient lives in another shard is appended to a per-
//! destination staging buffer instead of written to the mailbox. At the end
//! of each round's work phase every shard flushes its staging buffers into
//! the destinations' mutex-guarded inbound queues; at the start of the next
//! round each shard drains its own queue into its `next` mailbox before
//! swapping buffers. Every slot is written at most once per round (the
//! sender-side stamp guarantees it), and recipients' worklists are sorted
//! before polling, so the drain order — the only thing scheduling can vary
//! — is unobservable. This is what makes `SimStats`, traces, states, and
//! errors byte-identical for every shard count. A single shard owns every
//! recipient, so it never stages anything.
//!
//! # Round protocol
//!
//! Phase 0 is `init`, phase `r ≥ 1` is round `r`. After every phase one
//! function, [`after_phase`], decides what happens next: it records the
//! round's trace entry, then stops on a shard failure or on quiescence (no
//! worklist, no timer, no queued or staged message anywhere), fails at the
//! round cap, or starts the next phase.
//!
//! At one shard the caller's thread runs the phases and makes that
//! decision itself: no scope, no barrier, no panic catching, no staging
//! flush. With more shards, workers and the coordinating thread advance in
//! lockstep through two barriers per phase; between the end barrier of
//! phase `r` and the start barrier of phase `r + 1` only the coordinator
//! runs. It gathers the per-shard trace contributions and pending flags,
//! makes the same decision, and the lowest-shard error of the earliest
//! failing round is reported — the node a one-shard run fails on first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use lcs_graph::{Graph, NodeId, ShardMap};
use lcs_obs::{LatencyHistogram, Obs, SpanBuffer};

use crate::fault::{Delayed, FaultCounters, FaultState};
use crate::{
    Incoming, MessageBits, NodeContext, NodeProtocol, Outgoing, RoundTrace, SimConfig, SimError,
    SimOutcome, SimStats,
};

use super::{build_contexts, record_run, Topology};

/// The read-only inputs every phase of every shard consults.
struct Env<'a> {
    config: &'a SimConfig,
    topo: &'a Topology,
    map: &'a ShardMap,
    /// The run's fault schedule; `None` exactly when no plan is active.
    fault: Option<&'a FaultState>,
    contexts: &'a [NodeContext<'a>],
}

/// State the coordinator and the workers exchange at the barriers.
struct Shared<M> {
    barrier: Barrier,
    /// Phase number workers should execute next (0 = init).
    phase: AtomicU64,
    /// Set by the coordinator once the run is over.
    stop: AtomicBool,
    /// Set by any worker that recorded an error this phase.
    any_error: AtomicBool,
    /// Per-shard "has pending work" flags, refreshed every phase.
    active: Vec<AtomicBool>,
    /// Per-shard messages/bits delivered in the last executed round (for
    /// the trace).
    delivered: Vec<AtomicU64>,
    bits: Vec<AtomicU64>,
    /// Per-shard inbound cross-shard staging queues, double-buffered by
    /// phase parity: messages staged during phase `r` are addressed to
    /// phase `r + 1`, so writers use parity `(r + 1) % 2` while readers of
    /// phase `r` drain parity `r % 2` — the two phases never touch the
    /// same buffer, which is what keeps a fast shard's round-`r` sends from
    /// leaking into a slower shard's round-`r` deliveries. A staged copy
    /// carries its delivery key; fault-free copies leave `due` and
    /// `posted` at 0 (they are always due next round).
    inboxes: [Vec<Mutex<Vec<Delayed<M>>>>; 2],
}

/// The fault-mode extension of one shard: its slice of the delivery queue
/// (local recipients only — a delayed message lives in its *recipient's*
/// shard), the per-node round inboxes it feeds, the fresh states held for
/// this shard's restartable crash nodes, and the shard-local fault
/// tallies. Fault decisions themselves come from the run-wide
/// [`FaultState`], which is immutable and shared by reference, so shard
/// count cannot perturb a single draw.
struct ShardFault<P: NodeProtocol> {
    heap: BinaryHeap<Reverse<Delayed<P::Message>>>,
    /// Messages delivered to each local node this round (local-indexed,
    /// cleared after polling).
    inboxes: Vec<Vec<Incoming<P::Message>>>,
    /// Fresh states for this shard's crash nodes (ascending node order),
    /// present only when the plan restarts them.
    spares: Vec<(u32, Option<P>)>,
    counters: FaultCounters,
}

/// One shard's private slice of the run.
struct Shard<P: NodeProtocol> {
    id: usize,
    /// First node id (the shard owns `node_lo..node_lo + nodes.len()`).
    node_lo: usize,
    /// First CSR slot (the shard owns `slot_lo..slot_lo + cur.len()`).
    slot_lo: usize,
    nodes: Vec<P>,
    cur: Vec<Option<P::Message>>,
    next: Vec<Option<P::Message>>,
    /// Duplicate-send stamps, indexed by *sender-side* CSR position local
    /// to this shard (the sender of a directed edge is unique, so the check
    /// needs no cross-shard coordination).
    stamp: Vec<u64>,
    inbox_cur: Vec<u32>,
    inbox_next: Vec<u32>,
    queued: Vec<bool>,
    worklist_cur: Vec<u32>,
    worklist_next: Vec<u32>,
    wakes: BinaryHeap<Reverse<(u64, u32)>>,
    /// Outbound staging, one buffer per destination shard.
    staging: Vec<Vec<Delayed<P::Message>>>,
    in_flight_next: u64,
    bits_next: u64,
    last_delivered: u64,
    last_bits: u64,
    stats: SimStats,
    /// Active-node polls (worklist entries processed), accumulated locally
    /// like `stats` and folded into the obs counters in shard order.
    polls: u64,
    /// Probe state of a threaded run, all local to this shard's worker:
    /// whether probes are live at all (recording off, or one inline
    /// shard ⇒ no clock reads and no histogram), barrier-wait nanoseconds,
    /// and the size of every cross-shard staging flush.
    probe_on: bool,
    barrier_nanos: u64,
    flush_sizes: Option<LatencyHistogram>,
    error: Option<SimError>,
    /// A panic payload caught from protocol code on a worker (re-raised by
    /// the caller after the fleet stops — `Barrier` has no poisoning, so
    /// letting a worker unwind through a barrier would deadlock the rest).
    panic: Option<Box<dyn std::any::Any + Send>>,
    scratch: Vec<Incoming<P::Message>>,
    /// Fault-mode state; `None` exactly when the run has no active plan.
    fault: Option<ShardFault<P>>,
}

impl<P: NodeProtocol> Shard<P> {
    /// Whether `node` lives in this shard.
    #[inline]
    fn owns(&self, node: usize) -> bool {
        node.wrapping_sub(self.node_lo) < self.nodes.len()
    }

    #[inline]
    fn queue_local(&mut self, node: usize) {
        let local = node - self.node_lo;
        if !self.queued[local] {
            self.queued[local] = true;
            self.worklist_next.push(node as u32);
        }
    }

    /// Whether this shard has anything left to do: a node to poll, a timer
    /// to fire, or a delayed copy to deliver.
    fn pending(&self) -> bool {
        !self.worklist_next.is_empty()
            || !self.wakes.is_empty()
            || self.fault.as_ref().is_some_and(|f| !f.heap.is_empty())
    }

    /// The checks and send accounting every post makes, with or without
    /// faults: the recipient must be a neighbour, the directed edge unused
    /// this round, and the message within the bandwidth. Returns the
    /// edge's position in the sender's adjacency, its recipient-side slot,
    /// and the message size in bits.
    #[inline]
    fn accept(
        &mut self,
        env: &Env<'_>,
        ctx: &NodeContext<'_>,
        out: &Outgoing<P::Message>,
        round: u64,
    ) -> crate::Result<(usize, u32, usize)> {
        let pos = ctx.position_of(out.to).ok_or(SimError::NotANeighbor {
            from: ctx.node,
            to: out.to,
        })?;
        let gpos = env.topo.offset[ctx.node.index()] as usize + pos;
        let lpos = gpos - self.slot_lo;
        // Posting rounds strictly increase, so one stamp array covers both
        // buffers: an equal stamp can only mean "already sent this round".
        if self.stamp[lpos] == round {
            return Err(SimError::DuplicateSend {
                from: ctx.node,
                to: out.to,
                round,
            });
        }
        self.stamp[lpos] = round;
        let bits = out.msg.size_bits();
        if bits > env.config.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from: ctx.node,
                to: out.to,
                message_bits: bits,
                bandwidth_bits: env.config.bandwidth_bits,
            });
        }
        // Under faults `stats.messages` counts *sends*; deliveries (which
        // loss shrinks and duplication grows) are what the trace counts.
        self.stats.messages += 1;
        self.stats.total_bits += bits as u64;
        self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        Ok((pos, env.topo.mirror[gpos], bits))
    }

    /// Validates one outgoing message and enqueues it for the next round:
    /// straight into the mailbox for a local recipient, into the staging
    /// buffer of the recipient's shard otherwise.
    #[inline]
    fn post(
        &mut self,
        env: &Env<'_>,
        ctx: &NodeContext<'_>,
        out: Outgoing<P::Message>,
        round: u64,
    ) -> crate::Result<()> {
        let (_, slot, bits) = self.accept(env, ctx, &out, round)?;
        let to = out.to.index();
        if self.owns(to) {
            self.deliver_next(slot, to, bits as u64, out.msg);
        } else {
            self.stage(
                env,
                Delayed {
                    due: 0,
                    slot,
                    posted: 0,
                    to: to as u32,
                    bits: bits as u64,
                    msg: out.msg,
                },
            );
        }
        Ok(())
    }

    /// Appends a copy for a node of another shard to that shard's staging
    /// buffer. Kept out of line: at one shard it never runs, and threaded
    /// it is the minority of posts.
    #[cold]
    #[inline(never)]
    fn stage(&mut self, env: &Env<'_>, copy: Delayed<P::Message>) {
        self.staging[env.map.shard_of(NodeId::new(copy.to as usize))].push(copy);
    }

    /// Drains this shard's inbound queue (messages staged by other shards
    /// in the previous phase): into the next-round mailbox, or in fault
    /// mode into the delivery heap (their due rounds are still in the
    /// future, so ordering is preserved).
    fn merge_inbound(&mut self, phase: u64, shared: &Shared<P::Message>) {
        let staged = {
            let mut inbox = shared.inboxes[(phase % 2) as usize][self.id]
                .lock()
                .expect("no worker panics while holding an inbox lock");
            std::mem::take(&mut *inbox)
        };
        for st in staged {
            if let Some(fault) = self.fault.as_mut() {
                fault.heap.push(Reverse(st));
                continue;
            }
            self.deliver_next(st.slot, st.to as usize, st.bits, st.msg);
        }
    }

    /// Puts a validated message for the local node `to` into the
    /// next-round mailbox and schedules `to`.
    #[inline]
    fn deliver_next(&mut self, slot: u32, to: usize, bits: u64, msg: P::Message) {
        self.next[slot as usize - self.slot_lo] = Some(msg);
        self.inbox_next[to - self.node_lo] += 1;
        self.in_flight_next += 1;
        self.bits_next += bits;
        self.queue_local(to);
    }

    /// Flushes the outbound staging buffers into the destinations' inbound
    /// queues for the *next* phase.
    fn flush_staging(&mut self, phase: u64, shared: &Shared<P::Message>) {
        for (dst, buf) in self.staging.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            if let Some(sizes) = self.flush_sizes.as_mut() {
                sizes.record(buf.len() as u64);
            }
            let mut inbox = shared.inboxes[((phase + 1) % 2) as usize][dst]
                .lock()
                .expect("no worker panics while holding an inbox lock");
            inbox.append(buf);
        }
    }

    fn begin_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.inbox_cur, &mut self.inbox_next);
        std::mem::swap(&mut self.worklist_cur, &mut self.worklist_next);
        self.worklist_next.clear();
        for &v in &self.worklist_cur {
            self.queued[v as usize - self.node_lo] = false;
        }
        self.worklist_cur.sort_unstable();
        self.last_delivered = self.in_flight_next;
        self.last_bits = self.bits_next;
        self.in_flight_next = 0;
        self.bits_next = 0;
    }

    /// Moves node `idx`'s pending messages into `scratch` (cleared first).
    #[inline]
    fn drain_into(&mut self, idx: usize, topo: &Topology, ctx: &NodeContext<'_>) {
        self.scratch.clear();
        let local = idx - self.node_lo;
        if self.inbox_cur[local] == 0 {
            return;
        }
        let base = topo.offset[idx] as usize;
        let end = topo.offset[idx + 1] as usize;
        let neighbors = ctx.neighbor_ids();
        let edges = ctx.incident_edge_ids();
        for p in base..end {
            if let Some(msg) = self.cur[p - self.slot_lo].take() {
                self.scratch.push(Incoming {
                    from: neighbors[p - base],
                    edge: edges[p - base],
                    msg,
                });
            }
        }
        self.inbox_cur[local] = 0;
    }

    /// Executes phase `phase` of this shard (0 = `init`, else that round).
    fn run_phase(&mut self, phase: u64, env: &Env<'_>) {
        match (env.fault, phase) {
            (None, 0) => self.run_init(env),
            (None, round) => self.run_round(round, env),
            (Some(fs), 0) => self.run_init_faulty(env, fs),
            (Some(fs), round) => self.run_round_faulty(round, env, fs),
        }
    }

    /// Runs every phase on the caller's thread until [`after_phase`] stops
    /// the run; returns the last phase executed.
    fn run_inline(&mut self, env: &Env<'_>, trace: &mut Vec<RoundTrace>) -> crate::Result<u64> {
        let mut phase = 0;
        loop {
            self.run_phase(phase, env);
            let traffic = (self.last_delivered, self.last_bits);
            if !after_phase(
                phase,
                env.config,
                self.error.is_some(),
                self.pending(),
                traffic,
                trace,
            )? {
                return Ok(phase);
            }
            phase += 1;
        }
    }

    /// Phase 0: `init` every node of the shard, in node order.
    fn run_init(&mut self, env: &Env<'_>) {
        for local in 0..self.nodes.len() {
            let idx = self.node_lo + local;
            let ctx = &env.contexts[idx];
            let outgoing = self.nodes[local].init(ctx);
            for out in outgoing {
                if let Err(err) = self.post(env, ctx, out, 0) {
                    self.error = Some(err);
                    return;
                }
            }
            if !self.nodes[local].is_done() {
                self.wake(idx, 0);
            }
        }
    }

    /// Schedules a node that reported pending work after polling in
    /// `round`: at its requested wake round, or next round.
    #[inline]
    fn wake(&mut self, idx: usize, round: u64) {
        match self.nodes[idx - self.node_lo].next_wake(round) {
            Some(r) if r > round + 1 => self.wakes.push(Reverse((r, idx as u32))),
            _ => self.queue_local(idx),
        }
    }

    /// Moves every timer due by `round` onto the worklist.
    fn pop_due_wakes(&mut self, round: u64) {
        while let Some(&Reverse((due, idx))) = self.wakes.peek() {
            if due > round {
                break;
            }
            self.wakes.pop();
            self.queue_local(idx as usize);
        }
    }

    /// Phase `round ≥ 1`: pop due timers, flip buffers, poll the worklist.
    fn run_round(&mut self, round: u64, env: &Env<'_>) {
        self.pop_due_wakes(round);
        self.begin_round();
        let worklist = std::mem::take(&mut self.worklist_cur);
        self.polls += worklist.len() as u64;
        'nodes: for &vi in &worklist {
            let idx = vi as usize;
            let local = idx - self.node_lo;
            let ctx = &env.contexts[idx];
            self.drain_into(idx, env.topo, ctx);
            let outgoing = self.nodes[local].on_round(ctx, round, &self.scratch);
            for out in outgoing {
                if let Err(err) = self.post(env, ctx, out, round) {
                    self.error = Some(err);
                    break 'nodes;
                }
            }
            if !self.nodes[local].is_done() {
                self.wake(idx, round);
            }
        }
        self.worklist_cur = worklist;
    }

    /// Fault-mode post: the same checks and send accounting as
    /// [`Shard::post`], then the loss/delay/duplication schedule — every
    /// draw is keyed by the recipient-side slot and the round, never by
    /// which shard executes it. A local recipient's copy goes straight into
    /// this shard's delivery heap; a remote one is staged with its
    /// `(due, posted)` key and lands in the destination shard's heap at the
    /// next merge (cross-shard copies are due no earlier than `round + 1`,
    /// so the merge never arrives late).
    fn post_faulty(
        &mut self,
        env: &Env<'_>,
        fs: &FaultState,
        ctx: &NodeContext<'_>,
        out: Outgoing<P::Message>,
        round: u64,
    ) -> crate::Result<()> {
        let (pos, slot, bits) = self.accept(env, ctx, &out, round)?;
        let fault = self.fault.as_mut().expect("fault mode is on");
        if fs.lose(u64::from(slot), round) {
            fault.counters.drops += 1;
            return Ok(());
        }
        let to = out.to.index();
        let delay = fs.delay_of(ctx.incident_edge_ids()[pos].index());
        if delay > 0 {
            fault.counters.delays += 1;
        }
        let due = fs.next_poll(to, round + 1 + delay);
        let dup = fs.duplicate(u64::from(slot), round);
        if dup {
            fault.counters.dups += 1;
        }
        let copy = |due: u64, msg: P::Message| Delayed {
            due,
            slot,
            posted: round,
            to: to as u32,
            bits: bits as u64,
            msg,
        };
        if dup {
            self.enqueue(env, copy(fs.next_poll(to, due + 1), out.msg.clone()));
        }
        self.enqueue(env, copy(due, out.msg));
        Ok(())
    }

    /// Queues a delayed copy: into this shard's delivery heap when the
    /// recipient is local, staged for the recipient's shard otherwise.
    fn enqueue(&mut self, env: &Env<'_>, copy: Delayed<P::Message>) {
        let to = copy.to as usize;
        if self.owns(to) {
            let fault = self.fault.as_mut().expect("fault mode is on");
            fault.heap.push(Reverse(copy));
        } else {
            self.stage(env, copy);
        }
    }

    /// Schedules a node that reported pending work after polling in
    /// `round`, through its poll schedule: stragglers can only be polled on
    /// their poll rounds, so the effective wake round is the first poll
    /// round at or after the requested one (a late wake is exactly the
    /// straggler fault; the protocol layer budgets for it).
    fn wake_faulty(&mut self, fs: &FaultState, idx: usize, round: u64) {
        let target = match self.nodes[idx - self.node_lo].next_wake(round) {
            Some(r) => r.max(round + 1),
            None => round + 1,
        };
        let due = fs.next_poll(idx, target);
        if due > round + 1 {
            self.wakes.push(Reverse((due, idx as u32)));
        } else {
            self.queue_local(idx);
        }
    }

    /// Fault-mode phase 0: `init` every non-crashed node of the shard in
    /// node order, schedule wakes through each node's poll schedule, and
    /// arm the restart timers for this shard's crash nodes.
    fn run_init_faulty(&mut self, env: &Env<'_>, fs: &FaultState) {
        for local in 0..self.nodes.len() {
            let idx = self.node_lo + local;
            if fs.crashed_at(idx, 0) {
                continue;
            }
            let ctx = &env.contexts[idx];
            let outgoing = self.nodes[local].init(ctx);
            for out in outgoing {
                if let Err(err) = self.post_faulty(env, fs, ctx, out, 0) {
                    self.error = Some(err);
                    return;
                }
            }
            if !self.nodes[local].is_done() {
                self.wake_faulty(fs, idx, 0);
            }
        }
        if let Some(r) = fs.restart_local_round() {
            for &v in fs.crash_nodes() {
                if self.owns(v as usize) {
                    self.wakes.push(Reverse((r, v)));
                }
            }
        }
    }

    /// Fault-mode phase `round ≥ 1`: pop due timers and due deliveries
    /// (dropping mail addressed to currently-crashed nodes), flip
    /// worklists, then poll — skipping crashed nodes and re-initializing
    /// restarting ones.
    fn run_round_faulty(&mut self, round: u64, env: &Env<'_>, fs: &FaultState) {
        self.pop_due_wakes(round);
        let mut delivered: u64 = 0;
        let mut bits: u64 = 0;
        let fault = self.fault.as_mut().expect("fault mode is on");
        fault.counters.queue_peak = fault.counters.queue_peak.max(fault.heap.len() as u64);
        loop {
            let fault = self.fault.as_mut().expect("fault mode is on");
            if fault.heap.peek().is_none_or(|Reverse(d)| d.due > round) {
                break;
            }
            let Reverse(d) = fault.heap.pop().expect("peeked entry exists");
            debug_assert_eq!(d.due, round, "delivery rounds are never skipped");
            let to = d.to as usize;
            if fs.crashed_at(to, round) {
                fault.counters.crash_drops += 1;
                continue;
            }
            delivered += 1;
            bits += d.bits;
            let base = env.topo.offset[to] as usize;
            let k = d.slot as usize - base;
            let ctx = &env.contexts[to];
            fault.inboxes[to - self.node_lo].push(Incoming {
                from: ctx.neighbor_ids()[k],
                edge: ctx.incident_edge_ids()[k],
                msg: d.msg,
            });
            self.queue_local(to);
        }
        self.begin_round();
        // The fault plane bypasses the mailbox buffers, so the trace
        // contribution is the heap pop tally, not `in_flight_next`.
        self.last_delivered = delivered;
        self.last_bits = bits;
        let worklist = std::mem::take(&mut self.worklist_cur);
        let restart_round = fs.restart_local_round();
        'nodes: for &vi in &worklist {
            let idx = vi as usize;
            let local = idx - self.node_lo;
            let fault = self.fault.as_mut().expect("fault mode is on");
            if fs.crashed_at(idx, round) {
                fault.inboxes[local].clear();
                continue;
            }
            let ctx = &env.contexts[idx];
            self.polls += 1;
            let outgoing = if restart_round == Some(round) && fs.is_crash_node(idx) {
                // Restart: swap in the cleared state and run its `init` at
                // this round; whatever mail arrived alongside is lost with
                // the old state.
                if let Some(spare) = fault
                    .spares
                    .iter_mut()
                    .find(|(v, _)| *v as usize == idx)
                    .and_then(|(_, s)| s.take())
                {
                    self.nodes[local] = spare;
                    fault.counters.restarts += 1;
                }
                fault.inboxes[local].clear();
                self.nodes[local].init(ctx)
            } else {
                let outgoing = self.nodes[local].on_round(ctx, round, &fault.inboxes[local]);
                fault.inboxes[local].clear();
                outgoing
            };
            for out in outgoing {
                if let Err(err) = self.post_faulty(env, fs, ctx, out, round) {
                    self.error = Some(err);
                    break 'nodes;
                }
            }
            if !self.nodes[local].is_done() {
                self.wake_faulty(fs, idx, round);
            }
        }
        self.worklist_cur = worklist;
    }

    /// The worker loop of a threaded run: execute phases until the
    /// coordinator says stop.
    fn work(&mut self, env: &Env<'_>, shared: &Shared<P::Message>) {
        loop {
            self.wait_at_barrier(shared);
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let phase = shared.phase.load(Ordering::SeqCst);
            if self.error.is_none() && self.panic.is_none() {
                // Protocol code may panic (e.g. a protocol's own invariant
                // assertions). Catch it so this worker keeps meeting the
                // barriers; the coordinator stops the fleet and the payload
                // is re-raised on the caller's thread, exactly where an
                // inline run would have let it propagate. AssertUnwindSafe
                // is sound because the whole run is abandoned: no state of
                // this shard is observed afterwards.
                let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.merge_inbound(phase, shared);
                    self.run_phase(phase, env);
                    self.flush_staging(phase, shared);
                }));
                if let Err(payload) = work {
                    self.panic = Some(payload);
                }
            }
            shared.active[self.id].store(self.pending(), Ordering::SeqCst);
            shared.delivered[self.id].store(self.last_delivered, Ordering::SeqCst);
            shared.bits[self.id].store(self.last_bits, Ordering::SeqCst);
            if self.error.is_some() || self.panic.is_some() {
                shared.any_error.store(true, Ordering::SeqCst);
            }
            self.wait_at_barrier(shared);
        }
    }

    /// One barrier rendezvous, timed into the shard-local accumulator when
    /// probes are on (the only clock reads probes add to a worker, and
    /// only in recording runs).
    fn wait_at_barrier(&mut self, shared: &Shared<P::Message>) {
        if self.probe_on {
            let start = std::time::Instant::now();
            shared.barrier.wait();
            self.barrier_nanos += start.elapsed().as_nanos() as u64;
        } else {
            shared.barrier.wait();
        }
    }
}

/// The decision made once every shard has finished `phase`, shared by the
/// inline loop and the threaded coordinator: record the round's trace
/// entry (`traffic` is its delivered messages and bits), then stop if a
/// shard failed or nothing is pending anywhere, fail at the round cap, or
/// go on. `Ok(true)` means "run phase + 1".
fn after_phase(
    phase: u64,
    config: &SimConfig,
    failed: bool,
    pending: bool,
    traffic: (u64, u64),
    trace: &mut Vec<RoundTrace>,
) -> crate::Result<bool> {
    if phase > 0 && config.trace {
        trace.push(RoundTrace {
            round: phase,
            messages: traffic.0,
            bits: traffic.1,
        });
    }
    if failed || !pending {
        return Ok(false);
    }
    if phase >= config.max_rounds {
        return Err(SimError::RoundLimitExceeded {
            limit: config.max_rounds,
        });
    }
    Ok(true)
}

/// Runs the shards on one scoped worker each, coordinated from this
/// thread; returns the last phase executed.
fn run_threaded<P>(
    shards: &mut [Shard<P>],
    env: &Env<'_>,
    trace: &mut Vec<RoundTrace>,
) -> crate::Result<u64>
where
    P: NodeProtocol + Send,
    P::Message: Send,
{
    let shard_count = shards.len();
    let shared: Shared<P::Message> = Shared {
        barrier: Barrier::new(shard_count + 1),
        phase: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        any_error: AtomicBool::new(false),
        active: (0..shard_count).map(|_| AtomicBool::new(false)).collect(),
        delivered: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        bits: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        inboxes: [
            (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
            (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
        ],
    };

    std::thread::scope(|scope| {
        for shard in shards.iter_mut() {
            let shared = &shared;
            scope.spawn(move || shard.work(env, shared));
        }

        // The coordinator: decide between the end barrier of one phase and
        // the start barrier of the next (workers are parked on the start
        // barrier while this code runs).
        loop {
            shared.barrier.wait(); // workers begin the current phase
            shared.barrier.wait(); // workers finished it
            let phase = shared.phase.load(Ordering::SeqCst);
            let sum = |counts: &[AtomicU64]| -> u64 {
                counts.iter().map(|c| c.load(Ordering::SeqCst)).sum()
            };
            let pending = shared.active.iter().any(|a| a.load(Ordering::SeqCst))
                || shared.inboxes.iter().flatten().any(|m| {
                    !m.lock()
                        .expect("no worker panics while holding an inbox lock")
                        .is_empty()
                });
            match after_phase(
                phase,
                env.config,
                shared.any_error.load(Ordering::SeqCst),
                pending,
                (sum(&shared.delivered), sum(&shared.bits)),
                trace,
            ) {
                Ok(true) => shared.phase.store(phase + 1, Ordering::SeqCst),
                verdict => {
                    shared.stop.store(true, Ordering::SeqCst);
                    shared.barrier.wait(); // release workers into the stop check
                    return verdict.map(|_| phase);
                }
            }
        }
    })
}

/// Runs `factory`-built nodes to quiescence on `threads` contiguous node
/// shards (capped at the node count), reporting probe data through `obs`
/// (a no-op handle when recording is off). One shard runs inline on this
/// thread.
pub(crate) fn run<P, F>(
    graph: &Graph,
    config: &SimConfig,
    obs: &Obs,
    threads: usize,
    mut factory: F,
) -> crate::Result<SimOutcome<P>>
where
    P: NodeProtocol + Send,
    P::Message: Send,
    F: FnMut(&NodeContext) -> P,
{
    let topo = Topology::new(graph);
    let map = ShardMap::by_volume(graph, threads);
    let shard_count = map.shard_count();
    let threaded = shard_count > 1;
    let contexts = build_contexts(graph);
    // Factory calls happen on this thread, in node order, for every shard
    // count, so stateful factories (counters, RNG streams) observe
    // identical call histories.
    let mut all_nodes: Vec<P> = contexts.iter().map(&mut factory).collect();
    let fault_state = config
        .active_fault()
        .map(|plan| FaultState::new(&plan, graph));
    // Spare states for restartable crash nodes, created in ascending node
    // order after the main factory pass (the same call sequence for every
    // shard count).
    let mut spare_pool: Vec<(u32, Option<P>)> = match &fault_state {
        Some(fs) if fs.restart_local_round().is_some() => fs
            .crash_nodes()
            .iter()
            .map(|&v| (v, Some(factory(&contexts[v as usize]))))
            .collect(),
        _ => Vec::new(),
    };

    let probe_on = obs.is_on() && threaded;
    let mut shards: Vec<Shard<P>> = Vec::with_capacity(shard_count);
    for s in (0..shard_count).rev() {
        let range = map.range(s);
        // Shard 0 keeps the factory's allocation: a one-shard run moves the
        // states in and out and never copies them.
        let nodes: Vec<P> = if s == 0 {
            std::mem::take(&mut all_nodes)
        } else {
            all_nodes.split_off(range.start)
        };
        let fault = fault_state.as_ref().map(|_| {
            let split = spare_pool.partition_point(|(v, _)| (*v as usize) < range.start);
            ShardFault {
                heap: BinaryHeap::new(),
                inboxes: (0..range.len()).map(|_| Vec::new()).collect(),
                spares: spare_pool.split_off(split),
                counters: FaultCounters::default(),
            }
        });
        let slot_lo = topo.offset[range.start] as usize;
        let slot_hi = topo.offset[range.end] as usize;
        let slots = slot_hi - slot_lo;
        shards.push(Shard {
            id: s,
            node_lo: range.start,
            slot_lo,
            nodes,
            cur: (0..slots).map(|_| None).collect(),
            next: (0..slots).map(|_| None).collect(),
            stamp: vec![u64::MAX; slots],
            inbox_cur: vec![0; range.len()],
            inbox_next: vec![0; range.len()],
            queued: vec![false; range.len()],
            worklist_cur: Vec::new(),
            worklist_next: Vec::new(),
            wakes: BinaryHeap::new(),
            staging: (0..shard_count).map(|_| Vec::new()).collect(),
            in_flight_next: 0,
            bits_next: 0,
            last_delivered: 0,
            last_bits: 0,
            stats: SimStats::default(),
            polls: 0,
            probe_on,
            barrier_nanos: 0,
            flush_sizes: probe_on.then(LatencyHistogram::new),
            error: None,
            panic: None,
            scratch: Vec::new(),
            fault,
        });
    }
    shards.reverse();

    let env = Env {
        config,
        topo: &topo,
        map: &map,
        fault: fault_state.as_ref(),
        contexts: &contexts,
    };
    let mut trace: Vec<RoundTrace> = Vec::new();
    let rounds = if threaded {
        run_threaded(&mut shards, &env, &mut trace)?
    } else {
        shards[0].run_inline(&env, &mut trace)?
    };

    // Shards are ordered by ascending node range, and the run stops at the
    // end of the earliest failing phase, so the first failure found here
    // is the node a one-shard run fails on first. A protocol panic caught
    // on a worker is re-raised on this thread.
    for shard in &mut shards {
        if let Some(payload) = shard.panic.take() {
            std::panic::resume_unwind(payload);
        }
        if let Some(err) = shard.error.take() {
            return Err(err);
        }
    }

    let mut stats = SimStats {
        rounds,
        ..SimStats::default()
    };
    let mut nodes: Vec<P> = Vec::new();
    // Per-shard probe data is merged here, after the run ended, in
    // ascending shard order — the deterministic phase-boundary merge the
    // obs layer's contract asks for. Counters fold to the same totals for
    // every shard count; per-shard splits and barrier timings go to
    // gauges/timers because they depend on the shard count.
    let mut polls_total: u64 = 0;
    let mut staged_total: u64 = 0;
    let mut fault_counters = FaultCounters::default();
    let mut barrier_spans = SpanBuffer::new();
    for shard in shards {
        stats.messages += shard.stats.messages;
        stats.total_bits += shard.stats.total_bits;
        stats.max_message_bits = stats.max_message_bits.max(shard.stats.max_message_bits);
        if obs.is_on() {
            polls_total += shard.polls;
            obs.gauge_set(
                &format!("engine/shard/{}/messages", shard.id),
                shard.stats.messages,
            );
            obs.gauge_set(
                &format!("engine/shard/{}/bits", shard.id),
                shard.stats.total_bits,
            );
            obs.gauge_set(&format!("engine/shard/{}/polls", shard.id), shard.polls);
            if let Some(sizes) = &shard.flush_sizes {
                barrier_spans.record("engine/barrier_wait", shard.barrier_nanos);
                staged_total += sizes.sum() as u64;
                obs.timer_merge("engine/staging_flush_size", sizes);
            }
            if let Some(f) = &shard.fault {
                fault_counters.absorb(&f.counters);
            }
        }
        // Shard 0's vector has capacity for every node, so the later
        // shards append without reallocating.
        if shard.id == 0 {
            nodes = shard.nodes;
        } else {
            nodes.extend(shard.nodes);
        }
    }
    if obs.is_on() {
        if probe_on {
            obs.merge_spans(&mut barrier_spans);
            obs.gauge_set("engine/staged_messages", staged_total);
        }
        record_run(obs, &stats, polls_total);
        if fault_state.is_some() {
            fault_counters.record(obs);
        }
        obs.gauge_set("engine/shards", shard_count as u64);
    }

    Ok(SimOutcome {
        nodes,
        stats,
        trace,
    })
}
