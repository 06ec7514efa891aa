//! The sequential in-process replay every served digest is checked
//! against, for the in-process clients of `churn-mix` and the TCP
//! probe alike.
//!
//! A trace addresses the entries of several corpora of equal size as one
//! list: trace entry `e` is entry `e % per_graph` of corpus
//! `e / per_graph`. Every query's value is a pure function of its kind
//! and entry, so the replay serves each distinct (kind, entry) once, on
//! one warm session per corpus, and applies that table to each request.

use std::cell::RefCell;
use std::collections::HashMap;

use lcs_api::graph::Graph;
use lcs_api::{Pipeline, QueryValue, Session, Threads};
use lcs_workload::{query_of, Corpus, QueryEvent};

/// A session on `graph` configured like the ones under measurement:
/// seeded with `seed`, engine width 1.
pub fn session(graph: &Graph, seed: u64) -> Result<Session<'_>, String> {
    Pipeline::on(graph)
        .seed(seed)
        .threads(Threads::Fixed(1))
        .build()
        .map_err(|e| format!("Pipeline::build: {e}"))
}

/// Splits trace entry `event.entry` into its corpus index and the event
/// local to that corpus.
pub fn locate(event: &QueryEvent, per_graph: usize) -> (usize, QueryEvent) {
    let local = QueryEvent {
        entry: event.entry % per_graph,
        ..*event
    };
    (event.entry / per_graph, local)
}

/// The replay table over `corpora`, filled on demand.
pub struct Reference<'c> {
    corpora: &'c [Corpus],
    sessions: Vec<Session<'c>>,
    values: RefCell<HashMap<(usize, usize), (u64, QueryValue)>>,
}

impl<'c> Reference<'c> {
    /// One fresh session per corpus; nothing served yet.
    pub fn new(corpora: &'c [Corpus], seed: u64) -> Result<Self, String> {
        Ok(Reference {
            corpora,
            sessions: corpora
                .iter()
                .map(|c| session(c.graph(), seed))
                .collect::<Result<_, _>>()?,
            values: Default::default(),
        })
    }

    /// The replay's session on corpus `graph`.
    pub fn session(&self, graph: usize) -> &Session<'c> {
        &self.sessions[graph]
    }

    /// Digest and value of `event`, served through `serve_shared_full`.
    pub fn value(&self, event: &QueryEvent) -> Result<(u64, QueryValue), String> {
        let key = (event.kind.index(), event.entry);
        if let Some(v) = self.values.borrow().get(&key) {
            return Ok(v.clone());
        }
        let per_graph = self.corpora[0].entries().len();
        let (graph, local) = locate(event, per_graph);
        let (served, value) = self.sessions[graph]
            .serve_shared_full(query_of(&self.corpora[graph], &local))
            .map_err(|e| format!("replay of {event:?}: {e}"))?;
        self.values
            .borrow_mut()
            .insert(key, (served.digest, value.clone()));
        Ok((served.digest, value))
    }

    /// Digest of `event`.
    pub fn digest(&self, event: &QueryEvent) -> Result<u64, String> {
        self.value(event).map(|(d, _)| d)
    }
}
