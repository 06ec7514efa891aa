//! The TCP probe of the traced `churn-mix` run: the `lcs_server` server
//! (2 workers, its own process) over a grid 10×10 corpus of 6 entries,
//! driven by the benchmark's own line-JSON client with a Zipf θ=1
//! `consume` trace (60% verify, 40% quality, all `Scheduled`), in three
//! phases:
//!
//! 1. open loop at the frozen `light` rate of `design.json`;
//! 2. open loop at the frozen `heavy` rate;
//! 3. closed loop, no think time.
//!
//! Open-loop latency runs from each request's due time to its response,
//! so a stall is charged to every request queued behind it. Every
//! response is checked against a sequential in-process `serve_shared`
//! replay of the same queries: the digest multisets must be equal.
//!
//! It reports the server layer's per-layer costs only: on a 2-core host
//! its round-trip times swing with the host's scheduling far more than
//! the bound of an end-to-end metric allows.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lcs_api::graph::PartId;
use lcs_api::Threads;
use lcs_server::{ServerConfig, ServerHandle};
use lcs_workload::{
    generate_trace, Corpus, CorpusSpec, Family, Mode, QueryEvent, QueryKind, QueryMix, WorkloadSpec,
};

use crate::design::{tcp_load, TcpLoad};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::stats::{describe, median, quantile, sorted};
use crate::trace::{SpanId, SpanLog};
use crate::{vm_hwm_mib, SETUP_REPS};

const GRID_SIDE: usize = 10;
const ENTRIES: usize = 6;
const WORKERS: usize = 2;
const THETA: f64 = 1.0;
/// How long the server may take to answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long an open-loop phase may take to drain after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

fn corpus_spec(seed: u64) -> CorpusSpec {
    CorpusSpec {
        family: Family::Grid,
        size: GRID_SIDE,
        entries: ENTRIES,
        seed,
    }
}

/// The server process: this executable serving `lcs_server` with the
/// corpus of `--seed`, printing its address once bound.
pub fn serve_child(argv: Vec<String>) -> ExitCode {
    let seed = match argv.as_slice() {
        [flag, seed] if flag == "--seed" => seed.parse::<u64>().ok(),
        _ => None,
    };
    let Some(seed) = seed else {
        eprintln!("usage: perfbench --serve-child --seed <n>");
        return ExitCode::from(2);
    };
    let config = ServerConfig::new(vec![corpus_spec(seed)])
        .workers(WORKERS)
        .seed(seed)
        .threads(Threads::Fixed(1));
    let server = match ServerHandle::spawn(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfbench server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    match server.join() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench server: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A spawned server process; killed and reaped if still running when
/// dropped.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns the server and waits for its first pong.
    fn spawn(seed: u64) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--serve-child", "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let server = |addr| Server { child, addr };
        let Some(addr) = addr else {
            drop(server("127.0.0.1:0".parse().expect("literal address")));
            return Err(format!(
                "server did not report its address ({read:?}: {line:?})"
            ));
        };
        let server = server(addr);
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match Conn::open(addr).and_then(|mut c| c.call("{\"op\":\"ping\"}")) {
                Ok(reply) if reply.contains("\"op\":\"pong\"") => return Ok(server),
                Ok(reply) => return Err(format!("ping answered {reply}")),
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("server never answered a ping: {e}")),
            }
        }
    }

    /// Peak resident set of the server process, MiB.
    fn peak_rss_mib(&self) -> f64 {
        vm_hwm_mib(Some(self.child.id()))
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::open(self.addr).and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        if !matches!(&reply, Ok(r) if r.contains("\"draining\":true")) {
            return Err(format!("shutdown answered {reply:?}"));
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not exit after shutdown".to_string())
    }
}

/// One client connection: line-JSON over a blocking socket with a
/// hand-rolled line buffer, so reads can time out without losing bytes.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            pending: Vec::with_capacity(4096),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut wire = Vec::with_capacity(line.len() + 1);
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
        self.stream
            .write_all(&wire)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next complete line, waiting at most `wait` (`None`: forever).
    /// `Ok(None)` when the wait ran out first.
    fn recv(&mut self, wait: Option<Duration>) -> Result<Option<String>, String> {
        let started = Instant::now();
        loop {
            if let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=end).collect();
                return String::from_utf8(line)
                    .map(|l| Some(l.trim_end().to_string()))
                    .map_err(|_| "response is not UTF-8".to_string());
            }
            let timeout = match wait {
                None => None,
                Some(w) => match w.checked_sub(started.elapsed()) {
                    Some(left) if left >= Duration::from_micros(20) => Some(left),
                    _ => return Ok(None),
                },
            };
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| format!("timeout: {e}"))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv(None)?.ok_or_else(|| "no reply".to_string())
    }
}

fn request_line(event: &QueryEvent) -> String {
    format!(
        "{{\"op\":\"query\",\"graph\":\"grid\",\"kind\":\"{}\",\"entry\":{}}}",
        event.kind.label(),
        event.entry
    )
}

/// The members of a `served` response line the benchmark checks.
#[derive(Debug, Clone, Copy)]
struct Reply {
    digest: u64,
    wall_nanos: u64,
}

/// The unsigned integer after `"key":` in a flat JSON line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses a `served` response to `event`; `Err` for an `error` line or a
/// response to a different query.
fn parse_reply(line: &str, event: &QueryEvent) -> Result<Reply, String> {
    if !line.starts_with("{\"ok\":true,\"op\":\"query\"") {
        return Err(format!("not a served response: {line}"));
    }
    let echo = format!(
        "\"kind\":\"{}\",\"entry\":{},",
        event.kind.label(),
        event.entry
    );
    if !line.contains(&echo) || !line.contains("\"all_good\":true") {
        return Err(format!("response does not answer {echo}: {line}"));
    }
    match (u64_field(line, "digest"), u64_field(line, "wall_nanos")) {
        (Some(digest), Some(wall_nanos)) => Ok(Reply { digest, wall_nanos }),
        _ => Err(format!("response lacks digest or wall_nanos: {line}")),
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    event: usize,
    /// Latency in µs: from due time (open loop) or send (closed loop).
    latency_us: f64,
    /// How late the request was sent after its due time, µs.
    late_us: f64,
    reply: Reply,
}

/// What one connection thread of a phase produced.
#[derive(Default)]
struct ConnResult {
    samples: Vec<Sample>,
    errors: Vec<String>,
    /// Requests sent (answered or not).
    sent: usize,
}

/// Open loop on one connection, as two threads: the writer sends each of
/// `events` (indices into `trace`) at its due time, sleeping in between;
/// the reader blocks on the socket and matches replies to requests in
/// order. Neither waits for the other, so a slow reply delays no send.
fn open_conn(
    addr: SocketAddr,
    trace: &[QueryEvent],
    events: Vec<usize>,
    start: Instant,
) -> ConnResult {
    let mut result = ConnResult::default();
    let (mut reader, mut writer) = match Conn::open(addr).and_then(|c| {
        let w = c.stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok((c, w))
    }) {
        Ok(pair) => pair,
        Err(e) => {
            result.errors.push(e);
            return result;
        }
    };
    let due = |i: usize| start + Duration::from_nanos(trace[i].arrival_nanos);
    let (sent_tx, sent_rx) = std::sync::mpsc::channel::<(usize, f64)>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = 0;
            for &i in &events {
                let wait = due(i).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().duration_since(due(i)).as_secs_f64() * 1e6;
                let mut wire = request_line(&trace[i]).into_bytes();
                wire.push(b'\n');
                if let Err(e) = writer.write_all(&wire) {
                    return (sent, Some(format!("send: {e}")));
                }
                sent += 1;
                if sent_tx.send((i, late)).is_err() {
                    return (sent, None);
                }
            }
            (sent, None)
        });
        while let Ok((i, late)) = sent_rx.recv() {
            match reader.recv(Some(DRAIN_TIMEOUT)) {
                Ok(Some(line)) => {
                    let received = Instant::now();
                    match parse_reply(&line, &trace[i]) {
                        Ok(reply) => result.samples.push(Sample {
                            event: i,
                            latency_us: received.duration_since(due(i)).as_secs_f64() * 1e6,
                            late_us: late,
                            reply,
                        }),
                        Err(e) => result.errors.push(e),
                    }
                }
                Ok(None) => {
                    result.errors.push("open-loop reply timed out".to_string());
                    break;
                }
                Err(e) => {
                    result.errors.push(e);
                    break;
                }
            }
        }
        // Unblock a sender still sleeping towards its next due time by
        // closing the channel, then collect it.
        drop(sent_rx);
        let (sent, error) = sender.join().expect("open-loop sender panicked");
        result.sent = sent;
        result.errors.extend(error);
    });
    result
}

/// Closed loop on one connection: takes the next trace event from the
/// shared cursor, sends it, waits for the reply, until `deadline`.
fn closed_conn(
    addr: SocketAddr,
    trace: &[QueryEvent],
    cursor: &AtomicUsize,
    deadline: Instant,
    mut log: SpanLog,
) -> (ConnResult, SpanLog) {
    let mut result = ConnResult::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            result.errors.push(e);
            return (result, log);
        }
    };
    while Instant::now() < deadline {
        let i = cursor.fetch_add(1, Ordering::Relaxed) % trace.len();
        let traced = log.on() && i.is_multiple_of(2);
        let sent = Instant::now();
        let reply = conn.call(&request_line(&trace[i]));
        let received = Instant::now();
        result.sent += 1;
        let line = match reply {
            Ok(line) => line,
            Err(e) => {
                result.errors.push(e);
                break;
            }
        };
        match parse_reply(&line, &trace[i]) {
            Ok(reply) => {
                if traced {
                    let (s, e) = (log.nanos(sent), log.nanos(received));
                    let root = log.record("server.request", SpanId::NONE, i as u64, s, e);
                    let wire = (e - s).saturating_sub(reply.wall_nanos);
                    let name = format!("api.serve.{}", trace[i].kind.label());
                    log.record(
                        &name,
                        root,
                        i as u64,
                        s + wire / 2,
                        s + wire / 2 + reply.wall_nanos,
                    );
                }
                result.samples.push(Sample {
                    event: i,
                    latency_us: received.duration_since(sent).as_secs_f64() * 1e6,
                    late_us: 0.0,
                    reply,
                });
            }
            Err(e) => result.errors.push(e),
        }
    }
    (result, log)
}

/// Splits `trace` round-robin over `conns` connections and runs it open
/// loop from now.
fn open_phase(addr: SocketAddr, trace: &[QueryEvent], conns: usize) -> ConnResult {
    let start = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let events: Vec<usize> = (c..trace.len()).step_by(conns).collect();
                scope.spawn(move || open_conn(addr, trace, events, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    merge(results)
}

fn merge(results: Vec<ConnResult>) -> ConnResult {
    let mut all = ConnResult::default();
    for r in results {
        all.samples.extend(r.samples);
        all.errors.extend(r.errors);
        all.sent += r.sent;
    }
    all
}

fn open_trace(seed: u64, qps: u64, seconds: f64) -> Result<Vec<QueryEvent>, String> {
    let spec = WorkloadSpec::new(
        Mode::Open {
            mean_interarrival_nanos: 1_000_000_000 / qps.max(1),
        },
        ((qps as f64 * seconds).ceil() as usize).max(1),
        THETA,
        QueryMix::consume(),
        seed,
    );
    generate_trace(&spec, ENTRIES).map_err(|e| format!("generate_trace: {e}"))
}

/// Requests of the closed-loop trace; the loop wraps around if a run
/// outlasts them.
const CLOSED_TRACE_LEN: usize = 200_000;

fn closed_trace(seed: u64, clients: usize) -> Result<Vec<QueryEvent>, String> {
    let spec = WorkloadSpec::new(
        Mode::Closed {
            clients,
            think_nanos: 0,
        },
        CLOSED_TRACE_LEN,
        THETA,
        QueryMix::consume(),
        seed,
    );
    generate_trace(&spec, ENTRIES).map_err(|e| format!("generate_trace: {e}"))
}

/// The three traces of one run.
struct Traces {
    light: Vec<QueryEvent>,
    heavy: Vec<QueryEvent>,
    closed: Vec<QueryEvent>,
}

fn traces(seed: u64, load: &TcpLoad, open_s: f64, clients: usize) -> Result<Traces, String> {
    Ok(Traces {
        light: open_trace(seed, load.light_qps, open_s)?,
        heavy: open_trace(seed.wrapping_add(1), load.heavy_qps, open_s)?,
        closed: closed_trace(seed.wrapping_add(2), clients)?,
    })
}

/// Seconds the probe measures: a quarter at each open-loop rate, half
/// closed loop.
const PROBE_SECONDS: f64 = 8.0;

/// Runs the probe with the inputs of `seed`, recording into `log` and
/// `out`.
pub fn probe(seed: u64, log: &mut SpanLog, out: &mut Outcome) {
    if let Err(e) = probe_inner(seed, log, out) {
        out.check(false, || e);
    }
}

fn probe_inner(seed: u64, log: &mut SpanLog, out: &mut Outcome) -> Result<(), String> {
    let load = tcp_load();
    // At most nproc client threads: the closed loop runs one thread per
    // connection, the open loop two (a writer and a reader).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = nproc.min(WORKERS);
    let open_conns = (nproc / 2).clamp(1, WORKERS);
    let total = PROBE_SECONDS;
    let open_s = total * 0.25;

    // Set-up: the traces, then the server from spawn to its first pong.
    let mut setup_s = Vec::new();
    let mut ready_ms = Vec::new();
    let mut trace_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let root = log.open("bench.setup", SpanId::NONE, rep);
        let span = log.open("workload.trace", root, rep);
        let traces = traces(seed, &load, open_s, conns)?;
        trace_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.close(span);
        let spawned = Instant::now();
        let span = log.open("server.ready", root, rep);
        let server = Server::spawn(seed)?;
        log.close(span);
        log.close(root);
        ready_ms.push(spawned.elapsed().as_secs_f64() * 1e3);
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            server.shutdown()?;
        } else {
            kept = Some((traces, server));
        }
    }
    let (traces, server) = kept.expect("at least one set-up");

    let light = open_phase(server.addr, &traces.light, open_conns);
    let heavy = open_phase(server.addr, &traces.heavy, open_conns);
    let cursor = AtomicUsize::new(0);
    let closed_s = total - 2.0 * open_s;
    let closed_start = Instant::now();
    let deadline = closed_start + Duration::from_secs_f64(closed_s);
    let results: Vec<(ConnResult, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (trace, cursor, worker_log) = (&traces.closed, &cursor, log.fork());
                scope.spawn(move || closed_conn(server.addr, trace, cursor, deadline, worker_log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let closed_wall = closed_start.elapsed().as_secs_f64();
    let mut parts = Vec::new();
    for (result, worker_log) in results {
        log.absorb(worker_log);
        parts.push(result);
    }
    let closed = merge(parts);
    let peak_rss = server.peak_rss_mib();
    server.shutdown()?;

    // Correctness: every reply against the sequential in-process replay.
    let corpus = [Corpus::build(&corpus_spec(seed)).map_err(|e| format!("Corpus::build: {e}"))?];
    let reference = Reference::new(&corpus, seed)?;
    let mut served = Vec::new();
    let mut expected = Vec::new();
    for (phase, trace) in [
        (&light, &traces.light),
        (&heavy, &traces.heavy),
        (&closed, &traces.closed),
    ] {
        for e in &phase.errors {
            out.check(false, || e.clone());
        }
        let unanswered = phase
            .sent
            .saturating_sub(phase.samples.len() + phase.errors.len());
        for _ in 0..unanswered {
            out.check(false, || "a request went unanswered".to_string());
        }
        for s in &phase.samples {
            let want = reference.digest(&trace[s.event])?;
            served.push(s.reply.digest);
            expected.push(want);
            out.check(s.reply.digest == want, || {
                format!(
                    "{:?}: served digest {} != replay {}",
                    trace[s.event], s.reply.digest, want
                )
            });
        }
    }
    served.sort_unstable();
    expected.sort_unstable();
    out.check(served == expected, || {
        "served digest multiset differs from the replay".into()
    });

    let lat = |r: &ConnResult| r.samples.iter().map(|s| s.latency_us).collect::<Vec<f64>>();
    let closed_lat = lat(&closed);
    out.note(format!(
        "tcp probe seed {seed}: {open_conns} open-loop and {conns} closed-loop connections, {WORKERS} server workers; light {} qps and heavy {} qps for {open_s:.2} s each, closed loop for {closed_s:.2} s; set-up (trace + spawn to first pong) p50 {:.4} s",
        load.light_qps,
        load.heavy_qps,
        median(&setup_s)
    ));
    let light_lat = sorted(&lat(&light));
    let heavy_lat = sorted(&lat(&heavy));
    out.note(describe("light_us", "us", &light_lat));
    out.note(describe("heavy_us", "us", &heavy_lat));
    out.note(format!(
        "light_p50_us {:.3} us, light_p99_us {:.3} us, heavy_p50_us {:.3} us, heavy_p99_us {:.3} us",
        quantile(&light_lat, 0.5),
        quantile(&light_lat, 0.99),
        quantile(&heavy_lat, 0.5),
        quantile(&heavy_lat, 0.99)
    ));
    let heavy_p99 = quantile(&heavy_lat, 0.99);
    out.note(format!(
        "heavy p99 {heavy_p99:.1} us {} the {} us limit",
        if heavy_p99 <= load.p99_limit_us as f64 {
            "meets"
        } else {
            "misses"
        },
        load.p99_limit_us
    ));
    out.note(describe("closed_us", "us", &closed_lat));
    out.note(format!(
        "tcp probe closed: qps {:.1} 1/s, p50_us {:.3} us, p99_us {:.3} us",
        closed.samples.len() as f64 / closed_wall,
        quantile(&sorted(&closed_lat), 0.5),
        quantile(&sorted(&closed_lat), 0.99)
    ));
    out.note(format!("tcp probe server peak_rss_mib {peak_rss:.2} MiB"));

    let late: Vec<f64> = light
        .samples
        .iter()
        .chain(&heavy.samples)
        .map(|s| s.late_us)
        .collect();
    out.set("load.late_us.p99", quantile(&sorted(&late), 0.99));
    out.set("server.ready_ms", median(&ready_ms));
    out.note(format!(
        "tcp probe trace generation p50 {:.3} ms",
        median(&trace_ms)
    ));
    per_layer(
        &closed,
        &traces.closed,
        &reference,
        &corpus[0],
        &load,
        log,
        out,
    );
    Ok(())
}

/// Repeats of each direct `core` probe.
const PROBE_REPS: usize = 50;

/// The traced run's layer costs.
fn per_layer(
    closed: &ConnResult,
    trace: &[QueryEvent],
    reference: &Reference<'_>,
    corpus: &Corpus,
    load: &TcpLoad,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    // Service time per kind and the wire share of each round trip.
    let mut serve: HashMap<QueryKind, Vec<f64>> = HashMap::new();
    let mut round_trip: HashMap<QueryKind, Vec<f64>> = HashMap::new();
    let mut wire = Vec::new();
    for s in &closed.samples {
        let serve_us = s.reply.wall_nanos as f64 / 1e3;
        serve.entry(trace[s.event].kind).or_default().push(serve_us);
        round_trip
            .entry(trace[s.event].kind)
            .or_default()
            .push(s.latency_us);
        wire.push(s.latency_us - serve_us);
    }
    let n = closed.samples.len().max(1) as f64;
    let mut weighted = 0.0;
    let mut weighted_round_trip = 0.0;
    for kind in QueryKind::ALL {
        let samples = sorted(serve.get(&kind).map_or(&[][..], Vec::as_slice));
        let p50 = quantile(&samples, 0.5);
        weighted_round_trip +=
            median(round_trip.get(&kind).map_or(&[][..], Vec::as_slice)) * samples.len() as f64 / n;
        weighted += p50 * samples.len() as f64 / n;
        if !samples.is_empty() {
            out.note(describe(
                &format!("tcp probe api.serve_us.{}", kind.label()),
                "us",
                &samples,
            ));
        }
    }
    let wire = sorted(&wire);
    out.set("server.wire_us.p50", quantile(&wire, 0.5));
    out.set("server.wire_us.p99", quantile(&wire, 0.99));
    out.note(describe("server.wire_us", "us", &wire));
    let closed_p50 = median(
        &closed
            .samples
            .iter()
            .map(|s| s.latency_us)
            .collect::<Vec<_>>(),
    );
    let sum = weighted + quantile(&wire, 0.5);
    let ratio = sum / closed_p50;
    // The check aims at a ratio of 1 from either side, so the metric is
    // the larger of the ratio and its inverse: 1 at best, lower is better.
    out.set("trace.sum_ratio", ratio.max(1.0 / ratio));
    out.note(format!(
        "sum check: per-kind-weighted api.serve_us p50 {weighted:.2} us + server.wire_us p50 {:.2} us = {sum:.2} us against closed p50_us {closed_p50:.2} us: ratio {ratio:.3} ({} the ±{}% tolerance)",
        quantile(&wire, 0.5),
        if (ratio - 1.0).abs() * 100.0 <= load.sum_tolerance_pct as f64 { "within" } else { "outside" },
        load.sum_tolerance_pct
    ));
    // The closed p50 is the median of a verify/quality mixture, which a
    // weighted sum of per-kind medians need not match; the same sum against
    // the per-kind-weighted round-trip medians separates that effect from
    // time the layers do not account for.
    out.note(format!(
        "sum check per kind: {sum:.2} us against per-kind-weighted round-trip p50 {weighted_round_trip:.2} us: ratio {:.3}",
        sum / weighted_round_trip
    ));
    // Direct probes of the layers under `serve_shared`, on a session
    // configured like the server's.
    let session = reference.session(0);
    let graph = corpus.graph();
    let mut verify_us = Vec::new();
    let mut quality_ns = 0.0;
    let mut edge_visits = 0u64;
    for (k, entry) in corpus.entries().iter().enumerate() {
        let mut quality_runs = Vec::new();
        for rep in 0..PROBE_REPS {
            let span = log.open("core.verify_sched", SpanId::NONE, rep as u64);
            let t = Instant::now();
            let verify = session.verify(&entry.shortcut, &entry.partition, entry.threshold);
            verify_us.push(t.elapsed().as_secs_f64() * 1e6);
            log.close(span);
            let span = log.open("core.quality", SpanId::NONE, rep as u64);
            let t = Instant::now();
            let quality = session.quality(&entry.shortcut, &entry.partition);
            quality_runs.push(t.elapsed().as_secs_f64() * 1e9);
            log.close(span);
            if rep == 0 {
                out.check(verify.is_ok_and(|v| v.good.iter().all(|&g| g)), || {
                    format!("entry {k}: Scheduled verify not all-good")
                });
                out.check(quality.is_ok(), || format!("entry {k}: quality failed"));
            }
        }
        quality_ns += median(&quality_runs);
        // Edge visits of one quality pass: every part-induced edge plus
        // every shortcut edge of every part.
        let p = &entry.partition;
        let induced = graph
            .edges()
            .filter(|(_, e)| p.part_of(e.u).is_some() && p.part_of(e.u) == p.part_of(e.v))
            .count();
        let shortcut: usize = (0..entry.shortcut.part_count())
            .map(|i| entry.shortcut.edges_of(PartId::new(i)).len())
            .sum();
        edge_visits += (induced + shortcut) as u64;
    }
    out.set("core.verify_sched_us", median(&verify_us));
    out.set(
        "core.quality_ns_per_edge",
        quality_ns / edge_visits.max(1) as f64,
    );
}
