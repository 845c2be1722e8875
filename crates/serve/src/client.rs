//! A blocking, line-oriented client for the daemon — the test harness and
//! the reference implementation of the wire protocol's client side.
//!
//! The client is deliberately simple: every `submit_*` method writes one
//! request line and returns its id; [`Client::wait`] reads response lines
//! until the wanted id answers, buffering out-of-order responses (a daemon
//! with several workers completes requests in any order) and collecting
//! interleaved `progress` frames per request id.

use crate::json::JsonValue;
use crate::protocol::{self, RequestOpts};
use crate::wire::WireError;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use tempo_arch::engine::Query;
use tempo_arch::model::ArchitectureModel;

/// Per-request options; re-exported from the protocol layer.
pub type QueryOpts = RequestOpts;

/// A blocking protocol client over any line-oriented transport.
pub struct Client<R: BufRead, W: Write> {
    reader: R,
    writer: W,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    pending: HashMap<u64, Result<JsonValue, WireError>>,
    /// Progress frames collected per request id.
    progress: HashMap<u64, Vec<JsonValue>>,
}

impl Client<BufReader<TcpStream>, TcpStream> {
    /// Connects to a daemon over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client<BufReader<TcpStream>, TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        // Frames are single small writes on both sides; Nagle would only add
        // delayed-ACK latency to the request/response round trip.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client::over(reader, stream))
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// Wraps an existing transport (a pipe pair, an in-memory stream, …).
    pub fn over(reader: R, writer: W) -> Client<R, W> {
        Client {
            reader,
            writer,
            next_id: 0,
            pending: HashMap::new(),
            progress: HashMap::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        // One write per frame (see `SharedWriter::write_line`): a separate
        // newline write would re-introduce the Nagle/delayed-ACK stall.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()
    }

    /// Submits a `load_model` request; returns its id.
    pub fn submit_load_model(
        &mut self,
        model: &ArchitectureModel,
        initial_cap_factor: Option<i64>,
        max_cap_factor: Option<i64>,
    ) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_load_model(id, model, initial_cap_factor, max_cap_factor);
        self.send(&line)?;
        Ok(id)
    }

    /// Submits an `edit_model` request; returns its id.
    pub fn submit_edit_model(&mut self, model: &ArchitectureModel) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_edit_model(id, model);
        self.send(&line)?;
        Ok(id)
    }

    /// Submits a `query` request; returns its id.
    pub fn submit_query(
        &mut self,
        model: &str,
        query: &Query,
        opts: &QueryOpts,
    ) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_query(id, model, query, opts);
        self.send(&line)?;
        Ok(id)
    }

    /// Submits a `query_batch` request; returns its id.
    pub fn submit_query_batch(
        &mut self,
        model: &str,
        queries: &[Query],
        opts: &QueryOpts,
    ) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_query_batch(id, model, queries, opts);
        self.send(&line)?;
        Ok(id)
    }

    /// Submits a `cancel` for request `target`; returns the cancel's own id.
    pub fn submit_cancel(&mut self, target: u64) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_cancel(id, target);
        self.send(&line)?;
        Ok(id)
    }

    /// Submits a `stats` request; returns its id.
    pub fn submit_stats(&mut self) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_stats(id);
        self.send(&line)?;
        Ok(id)
    }

    /// Submits a `shutdown` request; returns its id.
    pub fn submit_shutdown(&mut self) -> io::Result<u64> {
        let id = self.fresh_id();
        let line = protocol::request_shutdown(id);
        self.send(&line)?;
        Ok(id)
    }

    /// Blocks until the response for `id` arrives.  Responses for other ids
    /// seen on the way are buffered for their own `wait`; `progress` frames
    /// accumulate per id and can be drained with [`Client::take_progress`].
    pub fn wait(&mut self, id: u64) -> io::Result<Result<JsonValue, WireError>> {
        if let Some(res) = self.pending.remove(&id) {
            return Ok(res);
        }
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed while waiting for response {id}"),
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            let v = crate::json::parse(line.trim_end()).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
            })?;
            match v.get("frame").and_then(JsonValue::as_str) {
                Some("progress") => {
                    if let Some(pid) = v.get("id").and_then(JsonValue::as_u64) {
                        self.progress.entry(pid).or_default().push(v);
                    }
                }
                Some("response") => {
                    let rid = v.get("id").and_then(JsonValue::as_u64);
                    let ok = v.get("ok").and_then(JsonValue::as_bool).unwrap_or(false);
                    let res = if ok {
                        Ok(v.get("result").cloned().unwrap_or(JsonValue::Null))
                    } else {
                        Err(v
                            .get("error")
                            .map(WireError::from_json)
                            .unwrap_or_else(|| {
                                WireError::new("internal", "malformed error frame")
                            }))
                    };
                    match rid {
                        Some(rid) if rid == id => return Ok(res),
                        Some(rid) => {
                            self.pending.insert(rid, res);
                        }
                        // A parse error the server could not attribute to a
                        // request id: surface it to whoever is waiting.
                        None => return Ok(res),
                    }
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown frame: {}", line.trim_end()),
                    ));
                }
            }
        }
    }

    /// Drains the progress frames collected for request `id`.
    pub fn take_progress(&mut self, id: u64) -> Vec<JsonValue> {
        self.progress.remove(&id).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Blocking conveniences: submit + wait in one call.
    // ------------------------------------------------------------------

    /// Loads `model` with the daemon's default analysis configuration.
    pub fn load_model(
        &mut self,
        model: &ArchitectureModel,
    ) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_load_model(model, None, None)?;
        self.wait(id)
    }

    /// Loads `model` with cap-factor overrides (selecting / creating the
    /// shared database for that configuration).
    pub fn load_model_with(
        &mut self,
        model: &ArchitectureModel,
        initial_cap_factor: Option<i64>,
        max_cap_factor: Option<i64>,
    ) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_load_model(model, initial_cap_factor, max_cap_factor)?;
        self.wait(id)
    }

    /// Replaces an already-loaded model in place (cache cones stay warm).
    pub fn edit_model(
        &mut self,
        model: &ArchitectureModel,
    ) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_edit_model(model)?;
        self.wait(id)
    }

    /// Runs one query and waits for its report.
    pub fn query(
        &mut self,
        model: &str,
        query: &Query,
        opts: &QueryOpts,
    ) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_query(model, query, opts)?;
        self.wait(id)
    }

    /// Runs a batch and waits for its results.
    pub fn query_batch(
        &mut self,
        model: &str,
        queries: &[Query],
        opts: &QueryOpts,
    ) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_query_batch(model, queries, opts)?;
        self.wait(id)
    }

    /// Cancels request `target` and waits for the cancel acknowledgement
    /// (the cancelled request still gets its own typed response).
    pub fn cancel(&mut self, target: u64) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_cancel(target)?;
        self.wait(id)
    }

    /// Fetches the daemon's stats snapshot.
    pub fn stats(&mut self) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_stats()?;
        self.wait(id)
    }

    /// Requests shutdown and waits for the acknowledgement.
    pub fn shutdown(&mut self) -> io::Result<Result<JsonValue, WireError>> {
        let id = self.submit_shutdown()?;
        self.wait(id)
    }
}
