//! Loopback clients of a running server: the [`Tcp`] transport, which
//! lets [`lcs_workload::replay`] drive the server with a trace, plus the
//! one-shot `ping` / `shutdown` / `metrics` requests.
//!
//! A TCP replay runs through the same driver as an in-process one
//! ([`lcs_workload::InProcess`]): same pacing, same round-robin split,
//! latency timed by the driver around each request. Its trace-order
//! digests and per-client chains are therefore directly comparable to an
//! in-process replay of the same trace, and the latency difference is
//! what the wire adds.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use lcs_api::QueryValue;
use lcs_workload::{QueryEvent, Transport};

use crate::protocol::{Request, Response};
use crate::ServeError;

/// The TCP transport: one line-JSON connection per client to the server
/// at `addr`, querying the corpus it serves under the label `graph`.
#[derive(Debug, Clone, Copy)]
pub struct Tcp<'a> {
    addr: SocketAddr,
    graph: &'a str,
}

impl<'a> Tcp<'a> {
    /// Queries `graph` on the server at `addr`.
    pub fn new(addr: SocketAddr, graph: &'a str) -> Self {
        Tcp { addr, graph }
    }
}

impl Transport for Tcp<'_> {
    type Conn = (TcpStream, BufReader<TcpStream>);
    type Error = ServeError;

    fn connect(&self) -> Result<Self::Conn, ServeError> {
        connect(self.addr)
    }

    /// Sends one query line and reads its answer; the server sends digests
    /// only, never values. A server-side `Error` response is a
    /// [`ServeError::Protocol`].
    fn serve(
        &self,
        (writer, reader): &mut Self::Conn,
        event: &QueryEvent,
    ) -> Result<(u64, Option<QueryValue>), ServeError> {
        let request = Request::Query {
            graph: self.graph.to_string(),
            kind: event.kind,
            entry: event.entry,
        };
        match exchange(writer, reader, &request)? {
            Response::Served { digest, .. } => Ok((digest, None)),
            Response::Error { message } => Err(ServeError::Protocol(message)),
            other => Err(unexpected("a served response", other)),
        }
    }
}

/// One blocking request/response exchange on an open connection.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> Result<Response, ServeError> {
    let mut wire = request.to_line();
    wire.push('\n');
    writer.write_all(wire.as_bytes())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServeError::Protocol(
            "server closed the connection mid-replay".to_string(),
        ));
    }
    Response::parse(&line).map_err(ServeError::Protocol)
}

/// The protocol error for an answer of the wrong shape.
fn unexpected(expected: &str, got: Response) -> ServeError {
    ServeError::Protocol(format!("expected {expected}, got {got:?}"))
}

/// Opens a connection as a (writer, reader) pair.
fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), ServeError> {
    let stream = TcpStream::connect(addr)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Sends `{"op":"shutdown"}` and waits for the draining acknowledgment.
///
/// # Errors
///
/// I/O errors, or a protocol error if the server answers anything but
/// `draining`.
pub fn shutdown(addr: SocketAddr) -> Result<(), ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    match exchange(&mut writer, &mut reader, &Request::Shutdown)? {
        Response::Draining => Ok(()),
        other => Err(unexpected("draining", other)),
    }
}

/// Sends `{"op":"ping"}` and checks for the pong.
///
/// # Errors
///
/// I/O errors, or a protocol error on any non-pong answer.
pub fn ping(addr: SocketAddr) -> Result<(), ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    match exchange(&mut writer, &mut reader, &Request::Ping)? {
        Response::Pong => Ok(()),
        other => Err(unexpected("pong", other)),
    }
}

/// Fetches the server's Prometheus metrics snapshot.
///
/// # Errors
///
/// I/O errors, or a protocol error on any non-metrics answer.
pub fn fetch_metrics(addr: SocketAddr) -> Result<String, ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    match exchange(&mut writer, &mut reader, &Request::Metrics)? {
        Response::Metrics { prometheus } => Ok(prometheus),
        other => Err(unexpected("metrics", other)),
    }
}
