//! A long-running concurrent query server over shared warm
//! [`Session`](lcs_api::Session)s: line-JSON over TCP, `std::net` only.
//!
//! Every earlier tier rebuilds its sessions per run; this crate is the
//! process that *holds* them. Decomposition state is expensive to build
//! and cheap to query — exactly the asymmetry a warm server amortizes —
//! so the server builds one [`lcs_workload::Corpus`] per graph family at
//! startup, wraps each graph in one warm session, and lets N worker
//! threads answer concurrent client connections through
//! [`Session::serve_shared`](lcs_api::Session::serve_shared) (`&self` —
//! the checkout-pool refactor made query paths lock-free above the
//! workspace free-list, so concurrent serving needs no session lock).
//!
//! The pieces:
//!
//! * **[`protocol`]** — the wire grammar: one JSON object per line, four
//!   request ops (`query` / `metrics` / `ping` / `shutdown`), typed
//!   parse/format with round-trip tests. Digests travel as bare JSON
//!   integers and survive beyond 2^53.
//! * **[`server`]** — [`ServerConfig`] → [`ServerHandle::spawn`]: bind,
//!   build corpora + warm sessions, serve until a `shutdown` line;
//!   graceful drain (no signals), per-kind latency probes, queue-depth
//!   gauge, Prometheus export over the `metrics` op.
//! * **[`client`]** — the [`Tcp`] transport, which plugs the server into
//!   [`lcs_workload::replay`], the same open/closed-loop driver that
//!   replays traces in process ([`lcs_workload::InProcess`]). One driver
//!   means one pacing and one latency definition, so a TCP outcome is
//!   digest- and latency-comparable to an in-process one of the same
//!   trace; plus one-shot `ping` / `shutdown` / `metrics` helpers.
//!
//! # Determinism contract
//!
//! The wire adds latency, never values: a response's `digest` is the
//! same [`lcs_api::ValueDigest`] the in-process serve path produces, so
//! the digest multiset of any replay is identical across client counts,
//! worker counts, and `LCS_THREADS`. Timings are measurements; values
//! are facts.
//!
//! # Quick start
//!
//! ```
//! use lcs_obs::Obs;
//! use lcs_server::{client, ServerConfig, ServerHandle, Tcp};
//! use lcs_workload::{generate_trace, replay, CorpusSpec, Family, Mode, QueryMix, WorkloadSpec};
//!
//! let server = ServerHandle::spawn(ServerConfig::new(vec![CorpusSpec {
//!     family: Family::Grid,
//!     size: 5,
//!     entries: 2,
//!     seed: 7,
//! }]))
//! .unwrap();
//! let spec = WorkloadSpec::new(
//!     Mode::Closed { clients: 2, think_nanos: 0 },
//!     8,
//!     0.0,
//!     QueryMix::consume(),
//!     7,
//! );
//! let trace = generate_trace(&spec, 2).unwrap();
//! let tcp = Tcp::new(server.addr(), "grid");
//! let outcome = replay(&tcp, &trace, spec.mode, &Obs::off()).unwrap();
//! assert_eq!(outcome.queries, 8);
//! client::shutdown(server.addr()).unwrap();
//! server.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Tcp;
pub use protocol::{Request, Response};
pub use server::{ServerConfig, ServerHandle, ServerStats};

/// Everything that can go wrong serving or replaying: socket I/O,
/// pipeline errors from corpus/session building or query serving, and
/// wire-protocol violations.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or stream error.
    Io(std::io::Error),
    /// A pipeline error (corpus build, session build, or query).
    Lcs(lcs_api::LcsError),
    /// A malformed or unexpected protocol line (including server-side
    /// `Error` responses surfaced to a replay caller).
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "server i/o error: {err}"),
            ServeError::Lcs(err) => write!(f, "pipeline error: {err}"),
            ServeError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(err) => Some(err),
            ServeError::Lcs(err) => Some(err),
            ServeError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

impl From<lcs_api::LcsError> for ServeError {
    fn from(err: lcs_api::LcsError) -> Self {
        ServeError::Lcs(err)
    }
}
