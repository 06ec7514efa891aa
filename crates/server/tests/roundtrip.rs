//! End-to-end server tests on loopback: a trace replayed over TCP must
//! be digest-identical to the same driver's in-process replay on one
//! warm session, shutdown must drain gracefully, and the metrics op must
//! export the serving probes.

use lcs_api::{LcsError, Pipeline};
use lcs_obs::Obs;
use lcs_server::{client, ServeError, ServerConfig, ServerHandle, Tcp};
use lcs_workload::{
    generate_trace, replay, Corpus, CorpusSpec, Family, InProcess, Mode, QueryEvent, QueryMix,
    WorkloadOutcome, WorkloadSpec,
};

fn spec_for(family: Family) -> CorpusSpec {
    CorpusSpec {
        family,
        size: 5,
        entries: 3,
        seed: 11,
    }
}

fn trace_spec(queries: usize, clients: usize) -> WorkloadSpec {
    WorkloadSpec::new(
        Mode::Closed {
            clients,
            think_nanos: 0,
        },
        queries,
        1.0,
        QueryMix::mixed(),
        11,
    )
}

fn closed(clients: usize) -> Mode {
    Mode::Closed {
        clients,
        think_nanos: 0,
    }
}

const OPEN: Mode = Mode::Open {
    mean_interarrival_nanos: 0,
};

/// `trace` replayed in process on one warm session seeded like the
/// server's.
fn direct(corpus: &Corpus, seed: u64, trace: &[QueryEvent], mode: Mode) -> WorkloadOutcome {
    let session = Pipeline::on(corpus.graph())
        .seed(seed)
        .build()
        .expect("session builds");
    replay(&InProcess::new(&session, corpus), trace, mode, &Obs::off()).expect("direct replay runs")
}

/// `trace` replayed over TCP against `graph` on the server at `addr`.
fn over_tcp(
    addr: std::net::SocketAddr,
    graph: &str,
    trace: &[QueryEvent],
    mode: Mode,
) -> Result<WorkloadOutcome, ServeError> {
    replay(&Tcp::new(addr, graph), trace, mode, &Obs::off())
}

fn client_chains(outcome: &WorkloadOutcome) -> Vec<(u64, u64)> {
    outcome
        .per_client
        .iter()
        .map(|c| (c.queries, c.digest))
        .collect()
}

#[test]
fn tcp_replay_is_digest_identical_to_direct_serving() {
    let corpus_spec = spec_for(Family::Grid);
    let corpus = Corpus::build(&corpus_spec).expect("corpus builds");
    let spec = trace_spec(24, 3);
    let trace = generate_trace(&spec, corpus.len()).expect("trace generates");

    let server = ServerHandle::spawn(ServerConfig::new(vec![corpus_spec]).workers(3).seed(11))
        .expect("server spawns");
    // Closed loop at three connections, then open loop at one: each must
    // equal the in-process replay of the same trace in the same mode —
    // trace-order digests, the fold, and every client's chain.
    for mode in [closed(3), OPEN] {
        let tcp = over_tcp(server.addr(), "grid", &trace, mode).expect("tcp replay runs");
        let want = direct(&corpus, 11, &trace, mode);
        assert_eq!(tcp.queries, 24);
        assert_eq!(
            tcp.digests, want.digests,
            "wire must add latency, not values"
        );
        assert_eq!(tcp.digest, want.digest, "{mode:?}");
        assert_eq!(client_chains(&tcp), client_chains(&want), "{mode:?}");
    }

    client::shutdown(server.addr()).expect("shutdown acknowledged");
    let stats = server.join().expect("server drains");
    // 3 closed-loop clients + 1 open-loop + 1 shutdown connection.
    assert_eq!(stats.connections, 5);
    assert_eq!(stats.requests, 24 + 24 + 1);
}

#[test]
fn scripted_session_pings_queries_and_shuts_down() {
    let server = ServerHandle::spawn(
        ServerConfig::new(vec![spec_for(Family::Wheel)])
            .workers(2)
            .seed(11)
            .recorder(Obs::recording()),
    )
    .expect("server spawns");
    let addr = server.addr();
    client::ping(addr).expect("ping answers");

    let spec = trace_spec(8, 1);
    let corpus = Corpus::build(&spec_for(Family::Wheel)).expect("corpus builds");
    let trace = generate_trace(&spec, corpus.len()).expect("trace generates");
    let outcome = over_tcp(addr, "wheel", &trace, closed(1)).expect("replay runs");
    assert_eq!(
        outcome.digests,
        direct(&corpus, 11, &trace, closed(1)).digests
    );

    let prometheus = client::fetch_metrics(addr).expect("metrics export");
    assert!(
        prometheus.contains("lcs_server_requests_total"),
        "export should carry the server request counter:\n{prometheus}"
    );
    assert!(
        prometheus.contains("lcs_server_query_"),
        "export should carry per-kind latency summaries:\n{prometheus}"
    );

    client::shutdown(addr).expect("shutdown acknowledged");
    server.join().expect("server drains");
    // After the drain, new connections must be refused or dropped unread.
    assert!(client::ping(addr).is_err(), "drained server must not serve");
}

#[test]
fn unknown_graphs_kinds_and_entries_are_typed_errors() {
    let server = ServerHandle::spawn(ServerConfig::new(vec![spec_for(Family::Torus)]).seed(11))
        .expect("server spawns");
    let addr = server.addr();

    let corpus = Corpus::build(&spec_for(Family::Torus)).expect("corpus builds");
    let spec = trace_spec(4, 1);
    let trace = generate_trace(&spec, corpus.len()).expect("trace generates");

    // Wrong graph label → protocol error naming the known graphs.
    let err = over_tcp(addr, "grid", &trace[..1], closed(1)).unwrap_err();
    assert!(err.to_string().contains("unknown graph"), "got: {err}");

    // Out-of-range entry → protocol error, connection stays serviceable.
    let mut event = trace[0];
    event.entry = 99;
    let err = over_tcp(addr, "torus", &[event], closed(1)).unwrap_err();
    assert!(err.to_string().contains("out of range"), "got: {err}");

    // Repair against a corpus built without repair cases.
    let mut repair = trace[0];
    repair.kind = lcs_workload::QueryKind::Repair;
    repair.entry = 0;
    let err = over_tcp(addr, "torus", &[repair], closed(1)).unwrap_err();
    assert!(err.to_string().contains("repair"), "got: {err}");

    // Zero closed-loop clients → the driver's config error, before any
    // connection is opened.
    let err = over_tcp(addr, "torus", &trace, closed(0)).unwrap_err();
    assert!(
        matches!(err, ServeError::Lcs(LcsError::Config { .. })),
        "got: {err}"
    );

    // The server survives all of that and still answers.
    let outcome = over_tcp(addr, "torus", &trace, closed(1)).expect("replay runs");
    assert_eq!(outcome.queries, 4);

    client::shutdown(addr).expect("shutdown acknowledged");
    server.join().expect("server drains");
}
