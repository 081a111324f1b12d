//! The line-oriented wire protocol between workers and the broker.
//!
//! One frame per line, `tag key=value ...`, every free-form value
//! percent-escaped with [`grass_trace::codec::escape`] (the same escaping the
//! trace formats use), so frames survive spaces, `=`, newlines and non-ASCII in
//! worker ids, cell specs and payloads.
//!
//! ```text
//! -> hello worker=w1
//! <- welcome version=3 cells=12
//! -> claim worker=w1
//! <- grant cell=3 attempt=1 lease=7 heartbeat_ms=1000 spec=<escaped>
//! <- wait ms=25                 (nothing claimable right now)
//! <- finished                   (every cell is terminal)
//! -> heartbeat worker=w1 cell=3          (fire-and-forget, no response)
//! -> complete worker=w1 cell=3 lease=7 payload=<escaped>
//! <- ok | stale
//! -> fail worker=w1 cell=3 lease=7 error=<escaped>
//! <- ok
//! -> bye worker=w1
//! <- ok
//! ```

use grass_trace::codec::{escape, unescape};

/// Protocol version carried in `welcome`; workers refuse a mismatch.
/// Version history: 1 = initial broker/worker protocol; 2 = added the
/// `sync`/`state` learned-state exchange frames; 3 = removed them again.
pub const PROTOCOL_VERSION: u32 = 3;

/// Frames a worker sends to the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Introduce the worker; the broker answers [`Response::Welcome`].
    Hello { worker: String },
    /// Ask for a cell; answered by `grant`, `wait` or `finished`.
    Claim { worker: String },
    /// Keep a lease alive. Fire-and-forget: no response frame.
    Heartbeat { worker: String, cell: usize },
    /// Report a finished cell with its result payload.
    Complete {
        worker: String,
        cell: usize,
        lease: u64,
        payload: String,
    },
    /// Report a cell the worker could not run (the broker re-dispatches it).
    Fail {
        worker: String,
        cell: usize,
        lease: u64,
        error: String,
    },
    /// Clean shutdown: the broker must not treat the disconnect as a crash.
    Bye { worker: String },
}

/// Frames the broker sends back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Welcome {
        version: u32,
        cells: usize,
    },
    Grant {
        cell: usize,
        attempt: u32,
        lease: u64,
        heartbeat_ms: u64,
        spec: String,
    },
    Wait {
        ms: u64,
    },
    Finished,
    Ok,
    Stale,
    Error {
        message: String,
    },
}

impl Request {
    /// Encode as a single line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { worker } => format!("hello worker={}", escape(worker)),
            Request::Claim { worker } => format!("claim worker={}", escape(worker)),
            Request::Heartbeat { worker, cell } => {
                format!("heartbeat worker={} cell={cell}", escape(worker))
            }
            Request::Complete {
                worker,
                cell,
                lease,
                payload,
            } => format!(
                "complete worker={} cell={cell} lease={lease} payload={}",
                escape(worker),
                escape(payload)
            ),
            Request::Fail {
                worker,
                cell,
                lease,
                error,
            } => format!(
                "fail worker={} cell={cell} lease={lease} error={}",
                escape(worker),
                escape(error)
            ),
            Request::Bye { worker } => format!("bye worker={}", escape(worker)),
        }
    }

    /// Parse one line. `Err` carries a human-readable reason.
    pub fn parse(line: &str) -> Result<Request, String> {
        let frame = Frame::parse(line)?;
        match frame.tag {
            "hello" => Ok(Request::Hello {
                worker: frame.text("worker")?,
            }),
            "claim" => Ok(Request::Claim {
                worker: frame.text("worker")?,
            }),
            "heartbeat" => Ok(Request::Heartbeat {
                worker: frame.text("worker")?,
                cell: frame.number("cell")? as usize,
            }),
            "complete" => Ok(Request::Complete {
                worker: frame.text("worker")?,
                cell: frame.number("cell")? as usize,
                lease: frame.number("lease")?,
                payload: frame.text("payload")?,
            }),
            "fail" => Ok(Request::Fail {
                worker: frame.text("worker")?,
                cell: frame.number("cell")? as usize,
                lease: frame.number("lease")?,
                error: frame.text("error")?,
            }),
            "bye" => Ok(Request::Bye {
                worker: frame.text("worker")?,
            }),
            other => Err(format!("unknown request tag `{other}`")),
        }
    }

    /// The worker id carried by every request variant.
    pub fn worker(&self) -> &str {
        match self {
            Request::Hello { worker }
            | Request::Claim { worker }
            | Request::Heartbeat { worker, .. }
            | Request::Complete { worker, .. }
            | Request::Fail { worker, .. }
            | Request::Bye { worker } => worker,
        }
    }
}

impl Response {
    /// Encode as a single line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Welcome { version, cells } => {
                format!("welcome version={version} cells={cells}")
            }
            Response::Grant {
                cell,
                attempt,
                lease,
                heartbeat_ms,
                spec,
            } => format!(
                "grant cell={cell} attempt={attempt} lease={lease} heartbeat_ms={heartbeat_ms} spec={}",
                escape(spec)
            ),
            Response::Wait { ms } => format!("wait ms={ms}"),
            Response::Finished => "finished".to_string(),
            Response::Ok => "ok".to_string(),
            Response::Stale => "stale".to_string(),
            Response::Error { message } => format!("error message={}", escape(message)),
        }
    }

    /// Parse one line. `Err` carries a human-readable reason.
    pub fn parse(line: &str) -> Result<Response, String> {
        let frame = Frame::parse(line)?;
        match frame.tag {
            "welcome" => Ok(Response::Welcome {
                version: frame.number("version")? as u32,
                cells: frame.number("cells")? as usize,
            }),
            "grant" => Ok(Response::Grant {
                cell: frame.number("cell")? as usize,
                attempt: frame.number("attempt")? as u32,
                lease: frame.number("lease")?,
                heartbeat_ms: frame.number("heartbeat_ms")?,
                spec: frame.text("spec")?,
            }),
            "wait" => Ok(Response::Wait {
                ms: frame.number("ms")?,
            }),
            "finished" => Ok(Response::Finished),
            "ok" => Ok(Response::Ok),
            "stale" => Ok(Response::Stale),
            "error" => Ok(Response::Error {
                message: frame.text("message")?,
            }),
            other => Err(format!("unknown response tag `{other}`")),
        }
    }
}

/// A parsed `tag key=value ...` line.
struct Frame<'a> {
    tag: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Frame<'a> {
    fn parse(line: &'a str) -> Result<Frame<'a>, String> {
        let mut parts = line.split_whitespace();
        let tag = parts.next().ok_or_else(|| "empty frame".to_string())?;
        let mut fields = Vec::new();
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("field `{part}` is not key=value"))?;
            fields.push((key, value));
        }
        Ok(Frame { tag, fields })
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("`{}` frame missing field `{key}`", self.tag))
    }

    fn text(&self, key: &str) -> Result<String, String> {
        unescape(self.raw(key)?).map_err(|e| format!("field `{key}`: {e}"))
    }

    fn number(&self, key: &str) -> Result<u64, String> {
        let raw = self.raw(key)?;
        raw.parse::<u64>()
            .map_err(|e| format!("field `{key}`={raw}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello {
                worker: "worker 1 = weird|id".into(),
            },
            Request::Claim { worker: "w".into() },
            Request::Heartbeat {
                worker: "w".into(),
                cell: 7,
            },
            Request::Complete {
                worker: "w".into(),
                cell: 3,
                lease: 19,
                payload: "line one\nline two = 0.5%".into(),
            },
            Request::Fail {
                worker: "w".into(),
                cell: 0,
                lease: 1,
                error: "boom: café".into(),
            },
            Request::Bye { worker: "w".into() },
        ];
        for req in cases {
            let line = req.encode();
            assert!(!line.contains('\n'), "frame must be one line: {line:?}");
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Welcome {
                version: PROTOCOL_VERSION,
                cells: 12,
            },
            Response::Grant {
                cell: 4,
                attempt: 2,
                lease: 11,
                heartbeat_ms: 20,
                spec: "machines=50 policy=grass trace=/tmp/a b.trace".into(),
            },
            Response::Wait { ms: 25 },
            Response::Finished,
            Response::Ok,
            Response::Stale,
            Response::Error {
                message: "no such cell".into(),
            },
        ];
        for resp in cases {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::parse(&line).unwrap(), resp);
        }
    }

    #[test]
    fn parse_rejects_malformed_frames() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("warble worker=w").is_err());
        assert!(Request::parse("heartbeat worker=w").is_err());
        assert!(Request::parse("heartbeat worker=w cell=notanumber").is_err());
        assert!(Response::parse("grant cell=1").is_err());
        assert!(Request::parse("complete worker w").is_err());
        assert!(Request::parse("sync worker=w payload=x").is_err());
        assert!(Response::parse("state payload=x").is_err());
    }
}
