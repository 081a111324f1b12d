//! The worker side: connect, claim cells, heartbeat while running, report
//! results, repeat until the broker says `finished`.

use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::FleetError;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Runs one cell. The spec and payload are opaque to the transport; the
/// domain layer (`grass-experiments`) defines both encodings.
///
/// `Err` reports a cell the worker could not run — the broker re-dispatches
/// it (subject to the retry cap), so a runner error is not fatal to the fleet.
pub trait CellRunner: Sync {
    fn run(&self, cell: usize, spec: &str) -> Result<String, String>;

    /// Never called: protocol v3 has no learned-state exchange. Kept as a provided
    /// method only because the repository benchmark (`perfbench/`) still forwards it.
    fn snapshot(&self) -> Option<String> {
        None
    }

    /// Never called: protocol v3 has no learned-state exchange. Kept as a provided
    /// method only because the repository benchmark (`perfbench/`) still forwards it.
    fn absorb(&self, _snapshots: &str) {}
}

impl<F> CellRunner for F
where
    F: Fn(usize, &str) -> Result<String, String> + Sync,
{
    fn run(&self, cell: usize, spec: &str) -> Result<String, String> {
        self(cell, spec)
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells completed and accepted by the broker.
    pub completed: usize,
    /// Cells completed but rejected as stale (lease had expired).
    pub stale: usize,
    /// Cells the runner failed.
    pub failed: usize,
}

/// Writes protocol lines; shared with the heartbeat thread behind a mutex so
/// concurrent frames never interleave mid-line.
#[derive(Clone)]
struct FrameWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl FrameWriter {
    fn send(&self, request: &Request) -> std::io::Result<()> {
        let mut line = request.encode();
        line.push('\n');
        let mut stream = self.stream.lock().unwrap();
        stream.write_all(line.as_bytes())
    }
}

/// Connect to a broker and work until it reports `finished`.
///
/// While a cell runs, a background thread heartbeats it at the cadence the
/// broker supplied in the grant, so a long cell keeps its lease and a
/// SIGKILLed worker stops heartbeating (and loses it).
pub fn run_worker(
    addr: impl ToSocketAddrs,
    worker_id: &str,
    runner: &dyn CellRunner,
) -> Result<WorkerReport, FleetError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = FrameWriter {
        stream: Arc::new(Mutex::new(stream)),
    };
    let worker = worker_id.to_string();
    let mut report = WorkerReport::default();

    writer.send(&Request::Hello {
        worker: worker.clone(),
    })?;
    match recv(&mut reader)? {
        Response::Welcome { version, .. } if version == PROTOCOL_VERSION => {}
        Response::Welcome { version, .. } => {
            return Err(FleetError::Protocol(format!(
                "broker speaks protocol v{version}, worker speaks v{PROTOCOL_VERSION}"
            )))
        }
        other => return Err(unexpected("welcome", &other)),
    }

    loop {
        writer.send(&Request::Claim {
            worker: worker.clone(),
        })?;
        match recv(&mut reader)? {
            Response::Grant {
                cell,
                lease,
                heartbeat_ms,
                spec,
                ..
            } => {
                let result = run_with_heartbeats(&writer, &worker, cell, heartbeat_ms, || {
                    runner.run(cell, &spec)
                });
                match result {
                    Ok(payload) => {
                        writer.send(&Request::Complete {
                            worker: worker.clone(),
                            cell,
                            lease,
                            payload,
                        })?;
                        match recv(&mut reader)? {
                            Response::Ok => report.completed += 1,
                            Response::Stale => report.stale += 1,
                            other => return Err(unexpected("ok|stale", &other)),
                        }
                    }
                    Err(error) => {
                        writer.send(&Request::Fail {
                            worker: worker.clone(),
                            cell,
                            lease,
                            error,
                        })?;
                        match recv(&mut reader)? {
                            Response::Ok => report.failed += 1,
                            other => return Err(unexpected("ok", &other)),
                        }
                    }
                }
            }
            Response::Wait { ms } => thread::sleep(Duration::from_millis(ms.clamp(1, 5_000))),
            Response::Finished => {
                writer.send(&Request::Bye { worker })?;
                // The broker acks `bye`, but it may already be shutting down;
                // a missing ack is not an error.
                let _ = recv(&mut reader);
                return Ok(report);
            }
            other => return Err(unexpected("grant|wait|finished", &other)),
        }
    }
}

/// Run `body`, heartbeating `(worker, cell)` every `heartbeat_ms` until it
/// returns. The heartbeat thread is joined before reporting, so a `complete`
/// frame is never followed by a heartbeat for the same (released) lease.
fn run_with_heartbeats<T>(
    writer: &FrameWriter,
    worker: &str,
    cell: usize,
    heartbeat_ms: u64,
    body: impl FnOnce() -> T,
) -> T {
    let stop = Arc::new(AtomicBool::new(false));
    let beat_stop = Arc::clone(&stop);
    let beat_writer = writer.clone();
    let beat_worker = worker.to_string();
    let interval = Duration::from_millis(heartbeat_ms.max(1));
    let beats = thread::spawn(move || {
        loop {
            // Sleep in small slices so join() never waits a full interval.
            let slice = Duration::from_millis(5.min(heartbeat_ms.max(1)));
            let mut slept = Duration::ZERO;
            while slept < interval {
                if beat_stop.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(slice);
                slept += slice;
            }
            if beat_stop.load(Ordering::SeqCst) {
                return;
            }
            if beat_writer
                .send(&Request::Heartbeat {
                    worker: beat_worker.clone(),
                    cell,
                })
                .is_err()
            {
                // Broker gone: the main loop will hit the same error.
                return;
            }
        }
    });
    let result = body();
    stop.store(true, Ordering::SeqCst);
    let _ = beats.join();
    result
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<Response, FleetError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(FleetError::Protocol("broker closed the connection".into()));
    }
    Response::parse(line.trim_end_matches('\n')).map_err(FleetError::Protocol)
}

fn unexpected(wanted: &str, got: &Response) -> FleetError {
    FleetError::Protocol(format!("expected {wanted}, got `{}`", got.encode()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn version_mismatch_is_refused_before_any_claim() {
        // A one-shot stub broker that answers `hello` with a v2 `welcome` and
        // then records every further frame until the worker hangs up.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut hello = String::new();
            reader.read_line(&mut hello).unwrap();
            writer.write_all(b"welcome version=2 cells=1\n").unwrap();
            let rest: Vec<String> = reader.lines().map_while(Result::ok).collect();
            (hello, rest)
        });

        let result = run_worker(addr, "w", &|_c: usize, _s: &str| Ok(String::new()));
        let (hello, rest) = stub.join().unwrap();

        assert_eq!(hello, "hello worker=w\n");
        match result {
            Err(FleetError::Protocol(msg)) => {
                assert!(msg.contains("v2"), "{msg}");
                assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "{msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(
            rest.iter().all(|line| !line.starts_with("claim")),
            "worker claimed after a version mismatch: {rest:?}"
        );
    }
}
