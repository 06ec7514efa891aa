//! E17 benchmark: the wire cost of TCP serving (the table itself is
//! produced by the `experiments` binary; this bench times whole
//! loopback replays against one long-lived server):
//!
//! * `tcp_closed/{1,4}` — closed-loop replays at 1 and 4
//!   client connections, so the difference shows what concurrent
//!   serving over the shared session buys (or costs) end to end;
//! * `direct_serve_shared` — the same trace replayed by the same driver
//!   in process (one warm session through `Session::serve_shared`),
//!   isolating protocol + socket overhead from query cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcs_api::Pipeline;
use lcs_obs::Obs;
use lcs_server::{client, ServerConfig, ServerHandle, Tcp};
use lcs_workload::{
    generate_trace, replay, Corpus, CorpusSpec, Family, InProcess, Mode, QueryMix, WorkloadSpec,
};

const QUERIES: usize = 48;
const SEED: u64 = 23;

fn bench_e17(c: &mut Criterion) {
    let corpus_spec = CorpusSpec {
        family: Family::Grid,
        size: 10,
        entries: 4,
        seed: SEED,
    };
    let corpus = Corpus::build(&corpus_spec).unwrap();
    let spec = WorkloadSpec::new(
        Mode::Closed {
            clients: 1,
            think_nanos: 0,
        },
        QUERIES,
        1.0,
        QueryMix::consume(),
        SEED,
    );
    let trace = generate_trace(&spec, corpus.len()).unwrap();
    let server =
        ServerHandle::spawn(ServerConfig::new(vec![corpus_spec]).workers(4).seed(SEED)).unwrap();
    let addr = server.addr();

    let mut group = c.benchmark_group("e17_server");
    group.sample_size(10);
    let closed = |clients| Mode::Closed {
        clients,
        think_nanos: 0,
    };
    let tcp = Tcp::new(addr, "grid");
    for clients in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("tcp_closed", clients),
            &clients,
            |b, &clients| b.iter(|| replay(&tcp, &trace, closed(clients), &Obs::off()).unwrap()),
        );
    }
    let session = Pipeline::on(corpus.graph()).seed(SEED).build().unwrap();
    let direct = InProcess::new(&session, &corpus);
    group.bench_with_input(BenchmarkId::new("direct_serve_shared", 1), &(), |b, ()| {
        b.iter(|| replay(&direct, &trace, closed(1), &Obs::off()).unwrap())
    });
    group.finish();

    client::shutdown(addr).unwrap();
    server.join().unwrap();
}

criterion_group!(benches, bench_e17);
criterion_main!(benches);
