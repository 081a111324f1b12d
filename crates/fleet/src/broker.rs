//! The TCP broker: owns the [`GridState`] behind a mutex, accepts worker
//! connections on localhost, and drives lease expiry from a poll loop.
//!
//! The broker is embeddable: [`serve_broker`] returns a [`BrokerHandle`]
//! immediately, and the caller decides whether to spawn worker processes
//! ([`crate::spawn::run_fleet`]), run worker threads in-process (tests), or
//! just wait for external workers (`repro fleet serve`).

use crate::config::FleetConfig;
use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::state::{CellStatus, Claim, Completion, FleetStats, GridState};
use crate::FleetError;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Everything a finished fleet run produced: grid-order payloads plus the
/// broker's event counters.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// One result payload per cell, in grid order.
    pub results: Vec<String>,
    pub stats: FleetStats,
}

/// A point-in-time view of the broker, for monitoring and tests.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    pub statuses: Vec<CellStatus>,
    pub stats: FleetStats,
    /// `(cell, worker)` pairs for currently active leases.
    pub leases: Vec<(usize, String)>,
    pub done: bool,
}

struct Shared {
    state: Mutex<GridState>,
    specs: Vec<String>,
    config: FleetConfig,
    started: Instant,
    done: AtomicBool,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Re-check terminality after any mutation and latch the done flag.
    fn refresh_done(&self, state: &GridState) {
        if state.all_done() {
            self.done.store(true, Ordering::SeqCst);
        }
    }
}

/// A running broker. Dropping the handle does not stop the accept thread;
/// call [`BrokerHandle::wait`] to drive the run to completion.
pub struct BrokerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

/// Start a broker for `specs` on `127.0.0.1:port` (`port = 0` picks a free
/// one). `cached[i] = Some(payload)` pre-completes cell `i` from the digest
/// cache so it is never dispatched.
pub fn serve_broker(
    specs: Vec<String>,
    cached: Vec<Option<String>>,
    config: FleetConfig,
) -> io::Result<BrokerHandle> {
    serve_broker_on(specs, cached, config, 0)
}

/// [`serve_broker`] with an explicit port.
pub fn serve_broker_on(
    specs: Vec<String>,
    cached: Vec<Option<String>>,
    config: FleetConfig,
    port: u16,
) -> io::Result<BrokerHandle> {
    assert_eq!(specs.len(), cached.len(), "one cached slot per spec");
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let mut state = GridState::new(specs.len(), config.clone());
    for (i, payload) in cached.into_iter().enumerate() {
        if let Some(payload) = payload {
            state.preload(i, payload);
        }
    }
    let shared = Arc::new(Shared {
        done: AtomicBool::new(state.all_done()),
        state: Mutex::new(state),
        specs,
        config: config.clone(),
        started: Instant::now(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("grass-fleet-broker".into())
        .spawn(move || accept_loop(listener, accept_shared))?;

    Ok(BrokerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

impl BrokerHandle {
    /// The address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once every cell is terminal.
    pub fn done(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }

    /// Point-in-time view of the grid.
    pub fn snapshot(&self) -> FleetSnapshot {
        let state = self.shared.state.lock().unwrap();
        FleetSnapshot {
            statuses: state.statuses(),
            stats: state.stats(),
            leases: state.active_leases(),
            done: self.done(),
        }
    }

    /// Block until every cell is terminal, then return grid-order results.
    ///
    /// Returns [`FleetError::Exhausted`] when any cell ran out of retries.
    pub fn wait(mut self) -> Result<FleetOutcome, FleetError> {
        let poll = Duration::from_millis(self.shared.config.poll_ms.max(1));
        while !self.done() {
            thread::sleep(poll);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let state = self.shared.state.lock().unwrap();
        match state.results() {
            Ok(results) => Ok(FleetOutcome {
                results,
                stats: state.stats(),
            }),
            Err(cells) => Err(FleetError::Exhausted(cells)),
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let poll = Duration::from_millis(shared.config.poll_ms.max(1));
    loop {
        if shared.done.load(Ordering::SeqCst) {
            return;
        }
        // Drive lease expiry from the accept loop: the broker's one ticker.
        {
            let mut state = shared.state.lock().unwrap();
            state.expire_leases(shared.now_ms());
            shared.refresh_done(&state);
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("grass-fleet-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(poll),
            Err(_) => thread::sleep(poll),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut worker_id: Option<String> = None;
    let mut clean_exit = false;
    if let Err(_e) = serve_connection(&stream, &shared, &mut worker_id, &mut clean_exit) {
        // I/O errors fall through to the crash-release path below.
    }
    if !clean_exit {
        if let Some(worker) = worker_id {
            let mut state = shared.state.lock().unwrap();
            state.release_worker(&worker, shared.now_ms());
            shared.refresh_done(&state);
        }
    }
}

fn serve_connection(
    stream: &TcpStream,
    shared: &Shared,
    worker_id: &mut Option<String>,
    clean_exit: &mut bool,
) -> io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(req) => req,
            Err(message) => {
                write_response(&mut writer, &Response::Error { message })?;
                continue;
            }
        };
        *worker_id = Some(request.worker().to_string());
        let is_bye = matches!(request, Request::Bye { .. });
        // Compute the response under the lock, write it outside the lock.
        let response = {
            let mut state = shared.state.lock().unwrap();
            let response = apply_request(&mut state, shared, &request);
            shared.refresh_done(&state);
            response
        };
        if let Some(response) = response {
            write_response(&mut writer, &response)?;
        }
        if is_bye {
            *clean_exit = true;
            return Ok(());
        }
    }
    Ok(())
}

/// Translate one request into a state transition plus an optional response
/// (`heartbeat` is fire-and-forget).
fn apply_request(state: &mut GridState, shared: &Shared, request: &Request) -> Option<Response> {
    let now_ms = shared.now_ms();
    match request {
        Request::Hello { .. } => Some(Response::Welcome {
            version: PROTOCOL_VERSION,
            cells: state.len(),
        }),
        Request::Claim { worker } => Some(match state.claim(worker, now_ms) {
            Claim::Granted {
                cell,
                attempt,
                lease,
            } => Response::Grant {
                cell,
                attempt,
                lease,
                heartbeat_ms: shared.config.heartbeat_ms,
                spec: shared.specs[cell].clone(),
            },
            Claim::Wait { ms } => Response::Wait { ms },
            Claim::Finished => Response::Finished,
        }),
        Request::Heartbeat { worker, cell } => {
            state.heartbeat(worker, *cell, now_ms);
            None
        }
        Request::Complete {
            worker,
            cell,
            lease,
            payload,
        } => Some(
            match state.complete(worker, *cell, *lease, payload.clone()) {
                Completion::Accepted => Response::Ok,
                Completion::Stale => Response::Stale,
            },
        ),
        Request::Fail {
            worker,
            cell,
            lease,
            ..
        } => {
            state.fail(worker, *cell, *lease, now_ms);
            Some(Response::Ok)
        }
        Request::Bye { .. } => Some(Response::Ok),
    }
}

fn write_response(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::run_worker;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Barrier, Once};

    #[test]
    fn broker_with_thread_workers_collects_grid_order_results() {
        let specs: Vec<String> = (0..6).map(|i| format!("spec-{i}")).collect();
        let cached = vec![None; specs.len()];
        let handle = serve_broker(specs, cached, FleetConfig::test_profile()).unwrap();
        let addr = handle.addr();

        // Each worker holds its first cell until the other holds one too. Without
        // this, one worker can finish the whole grid before the other connects,
        // and the late worker then finds the listener closed.
        let both_started = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let both_started = Arc::clone(&both_started);
                thread::spawn(move || {
                    let first = Once::new();
                    run_worker(addr, &format!("w{w}"), &|cell: usize, spec: &str| {
                        first.call_once(|| {
                            both_started.wait();
                        });
                        Ok(format!("cell={cell} spec={spec}"))
                    })
                })
            })
            .collect();

        let outcome = handle.wait().unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        assert_eq!(outcome.results.len(), 6);
        for (i, payload) in outcome.results.iter().enumerate() {
            assert_eq!(payload, &format!("cell={i} spec=spec-{i}"));
        }
        assert_eq!(outcome.stats.completed, 6);
        assert_eq!(outcome.stats.dispatched, 6);
    }

    #[test]
    fn failed_cells_are_retried_until_they_succeed() {
        static FAILURES_LEFT: AtomicUsize = AtomicUsize::new(2);
        let handle =
            serve_broker(vec!["only".into()], vec![None], FleetConfig::test_profile()).unwrap();
        let addr = handle.addr();
        let worker = thread::spawn(move || {
            run_worker(addr, "flaky", &|cell: usize, _spec: &str| {
                if FAILURES_LEFT
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    Err("transient".into())
                } else {
                    Ok(format!("ok-{cell}"))
                }
            })
        });
        let outcome = handle.wait().unwrap();
        let report = worker.join().unwrap().unwrap();
        assert_eq!(outcome.results, vec!["ok-0"]);
        assert_eq!(outcome.stats.failed_reports, 2);
        assert_eq!(outcome.stats.dispatched, 3);
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn fully_cached_grid_finishes_without_any_worker() {
        let handle = serve_broker(
            vec!["a".into(), "b".into()],
            vec![Some("ra".into()), Some("rb".into())],
            FleetConfig::test_profile(),
        )
        .unwrap();
        assert!(handle.done());
        let outcome = handle.wait().unwrap();
        assert_eq!(outcome.results, vec!["ra", "rb"]);
        assert_eq!(outcome.stats.cached, 2);
        assert_eq!(outcome.stats.dispatched, 0);
    }

    #[test]
    fn dropped_connection_releases_leases_for_redispatch() {
        let handle =
            serve_broker(vec!["only".into()], vec![None], FleetConfig::test_profile()).unwrap();
        let addr = handle.addr();

        // A raw client claims the cell and vanishes without `bye`.
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            writer.write_all(b"hello worker=ghost\n").unwrap();
            reader.read_line(&mut line).unwrap();
            line.clear();
            writer.write_all(b"claim worker=ghost\n").unwrap();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("grant "), "got {line:?}");
            // Drop both halves: unclean disconnect.
        }

        // A healthy worker picks the cell back up after the crash release.
        let worker = thread::spawn(move || {
            run_worker(addr, "healthy", &|_c: usize, _s: &str| Ok("done".into()))
        });
        let outcome = handle.wait().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(outcome.results, vec!["done"]);
        assert_eq!(outcome.stats.crash_releases, 1);
        assert_eq!(outcome.stats.dispatched, 2);
    }
}
