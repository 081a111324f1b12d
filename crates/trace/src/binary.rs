//! The compact binary format plugin (v2): length-prefixed frames, varint
//! integers, raw-bits floats.
//!
//! Layout:
//!
//! ```text
//! header   := "grass-trace" 0x00 version:u8 kind:u8      (14 bytes)
//! stream   := header frame*
//! frame    := len:varint body                             (len = body length)
//! body     := tag:u8 payload                              (schema fixed per tag)
//! ```
//!
//! Integers are LEB128 varints; `f64`s are their IEEE-754 bits little-endian, so
//! every float round-trips bit-exactly without any formatting or parsing — the
//! property the replay guarantee rests on, and the reason this format is an order
//! of magnitude faster than the text codec. Strings are varint-length-prefixed
//! UTF-8. Booleans are one byte, `0`/`1`.
//!
//! Decoding is strict, mirroring the text codec's posture: a bad magic, an
//! unsupported version, a wrong stream kind, an unknown frame tag, a truncated
//! frame, an oversized frame length, trailing bytes inside a frame, or a
//! job-count mismatch all fail with a [`TraceError`] naming the absolute byte
//! offset.

use std::io::{BufRead, Write};

use grass_core::{ActionKind, Bound, JobId, JobSpec, StageSpec, TaskId, TaskSpec};
use grass_sim::{SimTraceEvent, SlotId};

use crate::codec::{StreamKind, TraceError, BINARY_FORMAT_VERSION, MAGIC};
use crate::execution::ExecutionMeta;
use crate::format::{TraceCodec, TraceFormat};
use crate::stream::{ExecutionEvents, ExecutionFrames, WorkloadFrames, WorkloadItems};
use crate::workload::WorkloadMeta;

/// Byte that follows the shared magic in a binary header (text uses `' '`).
pub(crate) const MAGIC_TERMINATOR: u8 = 0;

/// Upper bound on a single frame's body length. Generously above any real record
/// (the largest are multi-thousand-task job frames, tens of KiB) while keeping a
/// corrupt length prefix from looking like a 16 EiB allocation request.
pub const MAX_FRAME_LEN: u64 = 1 << 28;

/// Stream-kind byte in the binary header.
pub(crate) fn kind_code(kind: StreamKind) -> u8 {
    match kind {
        StreamKind::Workload => 0,
        StreamKind::Execution => 1,
    }
}

// Frame tags. Meta is always the first frame of either stream; the remaining
// tags are stream-specific (job frames in workload streams, event frames in
// execution streams).
pub(crate) const TAG_META: u8 = 0x01;
pub(crate) const TAG_JOB: u8 = 0x02;
const TAG_ARRIVE: u8 = 0x10;
const TAG_DECIDE: u8 = 0x11;
const TAG_LAUNCH: u8 = 0x12;
const TAG_FINISH: u8 = 0x13;
const TAG_KILL: u8 = 0x14;
const TAG_JOBDONE: u8 = 0x15;

pub(crate) fn frame_err(offset: u64, message: impl Into<String>) -> TraceError {
    TraceError::Frame {
        offset,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Encode primitives (append to a frame buffer).
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

// ---------------------------------------------------------------------------
// Frame bodies (shared by the v2 codec and the compressed v3 codec, whose
// blocks carry the same frame schema).
// ---------------------------------------------------------------------------

/// Encode a workload meta frame body (tag included).
pub(crate) fn workload_meta_body(buf: &mut Vec<u8>, meta: &WorkloadMeta, num_jobs: usize) {
    buf.push(TAG_META);
    put_varint(buf, meta.generator_seed);
    put_varint(buf, meta.sim_seed);
    put_str(buf, &meta.policy);
    put_str(buf, &meta.profile);
    put_varint(buf, meta.machines as u64);
    put_varint(buf, meta.slots_per_machine as u64);
    put_varint(buf, num_jobs as u64);
}

/// Encode a job frame body (tag included).
pub(crate) fn job_body(buf: &mut Vec<u8>, job: &JobSpec) {
    buf.push(TAG_JOB);
    put_varint(buf, job.id.value());
    put_f64(buf, job.arrival);
    match job.bound {
        Bound::Deadline(d) => {
            buf.push(0);
            put_f64(buf, d);
        }
        Bound::Error(e) => {
            buf.push(1);
            put_f64(buf, e);
        }
    }
    put_varint(buf, job.stages.len() as u64);
    for stage in &job.stages {
        put_str(buf, &stage.name);
        put_varint(buf, stage.task_count as u64);
    }
    put_varint(buf, job.tasks.len() as u64);
    for task in &job.tasks {
        buf.push(task.stage.value());
        put_f64(buf, task.work);
    }
}

/// Encode an execution meta frame body (tag included).
pub(crate) fn execution_meta_body(buf: &mut Vec<u8>, meta: &ExecutionMeta) {
    buf.push(TAG_META);
    put_varint(buf, meta.sim_seed);
    put_str(buf, &meta.policy);
    put_varint(buf, meta.machines as u64);
    put_varint(buf, meta.slots_per_machine as u64);
}

/// Encode an execution event frame body (tag included).
pub(crate) fn event_body(buf: &mut Vec<u8>, event: &SimTraceEvent) {
    let tag = match *event {
        SimTraceEvent::JobArrival { .. } => TAG_ARRIVE,
        SimTraceEvent::Decision { .. } => TAG_DECIDE,
        SimTraceEvent::CopyLaunch { .. } => TAG_LAUNCH,
        SimTraceEvent::CopyFinish { .. } => TAG_FINISH,
        SimTraceEvent::CopyKill { .. } => TAG_KILL,
        SimTraceEvent::JobFinish { .. } => TAG_JOBDONE,
    };
    buf.push(tag);
    put_f64(buf, event.time());
    put_varint(buf, event.job().value());
    match *event {
        SimTraceEvent::JobArrival { .. } => {}
        SimTraceEvent::Decision { task, kind, .. } => {
            put_varint(buf, u64::from(task.0));
            buf.push(match kind {
                ActionKind::Launch => 0,
                ActionKind::Speculate => 1,
            });
        }
        SimTraceEvent::CopyLaunch {
            task,
            copy,
            slot,
            duration,
            speculative,
            ..
        } => {
            put_varint(buf, u64::from(task.0));
            put_varint(buf, copy);
            put_varint(buf, slot.machine as u64);
            put_varint(buf, slot.slot as u64);
            put_f64(buf, duration);
            put_bool(buf, speculative);
        }
        SimTraceEvent::CopyFinish {
            task,
            copy,
            task_completed,
            ..
        } => {
            put_varint(buf, u64::from(task.0));
            put_varint(buf, copy);
            put_bool(buf, task_completed);
        }
        SimTraceEvent::CopyKill {
            task, copy, slot, ..
        } => {
            put_varint(buf, u64::from(task.0));
            put_varint(buf, copy);
            put_varint(buf, slot.machine as u64);
            put_varint(buf, slot.slot as u64);
        }
        SimTraceEvent::JobFinish {
            completed_input,
            completed_total,
            ..
        } => {
            put_varint(buf, completed_input as u64);
            put_varint(buf, completed_total as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Decode primitives.
// ---------------------------------------------------------------------------

/// Reads frames off a stream, tracking the absolute byte offset for error
/// reporting. Owns its reader so streaming iterators can carry it. Shared with
/// the compressed (v3) codec, which reuses the varint/offset machinery for its
/// block framing.
pub(crate) struct FrameReader<R> {
    pub(crate) r: R,
    pub(crate) offset: u64,
}

impl<R: BufRead> FrameReader<R> {
    pub(crate) fn new(r: R) -> Self {
        FrameReader { r, offset: 0 }
    }

    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        let at = self.offset;
        self.r.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                frame_err(
                    at,
                    format!("truncated trace: expected {} more bytes", buf.len()),
                )
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Validate the 14-byte binary header, returning the declared stream kind.
    fn read_header(&mut self) -> Result<StreamKind, TraceError> {
        self.read_header_version(BINARY_FORMAT_VERSION)
    }

    /// Validate a 14-byte binary-framing header against `expected_version`
    /// (shared by the v2 and v3 codecs, which differ only in the version byte).
    pub(crate) fn read_header_version(
        &mut self,
        expected_version: u32,
    ) -> Result<StreamKind, TraceError> {
        let mut header = [0u8; 14];
        self.r.read_exact(&mut header).map_err(|e| {
            // A too-short stream is "not a binary trace"; a genuine I/O failure
            // must surface as such, not masquerade as corruption.
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::BadMagic
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += header.len() as u64;
        // grass: allow(panicky-lib, "constant offsets into the fixed 14-byte header array")
        if &header[..MAGIC.len()] != MAGIC.as_bytes() || header[MAGIC.len()] != MAGIC_TERMINATOR {
            return Err(TraceError::BadMagic);
        }
        // grass: allow(panicky-lib, "constant offsets into the fixed 14-byte header array")
        let version = header[12];
        if u32::from(version) != expected_version {
            return Err(TraceError::UnsupportedVersion(u32::from(version)));
        }
        // grass: allow(panicky-lib, "constant offsets into the fixed 14-byte header array")
        match header[13] {
            0 => Ok(StreamKind::Workload),
            1 => Ok(StreamKind::Execution),
            other => Err(frame_err(13, format!("unknown stream-kind byte {other}"))),
        }
    }

    /// Whether the underlying reader is exactly at end of stream.
    pub(crate) fn at_eof(&mut self) -> Result<bool, TraceError> {
        Ok(self.r.fill_buf()?.is_empty())
    }

    /// Read the next frame's length prefix, or `None` at a clean end of stream.
    pub(crate) fn next_frame_len(&mut self) -> Result<Option<u64>, TraceError> {
        if self.at_eof()? {
            return Ok(None);
        }
        let start = self.offset;
        let len = self.read_varint()?;
        if len > MAX_FRAME_LEN {
            return Err(frame_err(
                start,
                format!("frame length {len} overflows the {MAX_FRAME_LEN}-byte cap"),
            ));
        }
        Ok(Some(len))
    }

    /// Read one frame's body into `buf`, returning the byte offset the body
    /// starts at, or `None` at a clean end of stream.
    fn next_frame(&mut self, buf: &mut Vec<u8>) -> Result<Option<u64>, TraceError> {
        let Some(len) = self.next_frame_len()? else {
            return Ok(None);
        };
        let start = self.offset;
        buf.clear();
        buf.resize(len as usize, 0);
        self.read_exact(buf).map_err(|e| match e {
            TraceError::Frame { .. } => frame_err(
                start,
                format!("truncated frame: length prefix declares {len} bytes past end of trace"),
            ),
            other => other,
        })?;
        Ok(Some(start))
    }

    pub(crate) fn read_varint(&mut self) -> Result<u64, TraceError> {
        let start = self.offset;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            self.read_exact(&mut byte)?;
            let [byte] = byte;
            if shift == 63 && byte > 1 {
                return Err(frame_err(start, "varint overflows 64 bits"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(frame_err(start, "varint longer than 10 bytes"));
            }
        }
    }
}

impl<'a> FrameReader<&'a [u8]> {
    /// Borrowed variant of [`next_frame`](Self::next_frame) for in-memory
    /// streams (the memory-mapped decode path): yields the frame body as a
    /// slice of the underlying buffer plus its absolute offset, copying
    /// nothing. Shares the length-prefix and truncation checks with the
    /// streamed reader, so errors are byte-identical.
    pub(crate) fn next_frame_borrowed(&mut self) -> Result<Option<(&'a [u8], u64)>, TraceError> {
        let Some(len) = self.next_frame_len()? else {
            return Ok(None);
        };
        let start = self.offset;
        // `len` is capped at MAX_FRAME_LEN (fits usize on every supported
        // target), so the cast cannot truncate.
        let n = len as usize;
        if n > self.r.len() {
            return Err(frame_err(
                start,
                format!("truncated frame: length prefix declares {len} bytes past end of trace"),
            ));
        }
        let (frame, rest) = self.r.split_at(n);
        self.r = rest;
        self.offset += len;
        Ok(Some((frame, start)))
    }
}

/// Cursor over one frame's body; every error names the absolute byte offset of
/// the offending field. Shared by the v2, v3 and memory-mapped decode paths —
/// for the mmap path, `base` is the byte index into the map, so errors are
/// byte-identical to the streamed decoder's.
pub(crate) struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
}

impl<'a> Body<'a> {
    pub(crate) fn new(buf: &'a [u8], base: u64) -> Self {
        Body { buf, pos: 0, base }
    }

    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Position within the frame buffer (bytes consumed so far).
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The slice between two recorded positions — used by the borrowed decoder
    /// to capture a region it has just validated by scanning.
    pub(crate) fn slice_between(&self, start: usize, end: usize) -> &'a [u8] {
        self.buf.get(start..end).unwrap_or(&[])
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        // `n` comes from untrusted varints (string/array lengths), so compare
        // against the remaining bytes rather than computing `pos + n`, which a
        // corrupt near-usize::MAX length would overflow into a panic.
        if n > self.buf.len() - self.pos {
            return Err(frame_err(
                self.offset(),
                format!("frame ends inside {what} ({n} bytes needed)"),
            ));
        }
        // grass: allow(panicky-lib, "range proven in bounds by the remaining-bytes check above")
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self, what: &str) -> Result<u8, TraceError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    pub(crate) fn take_bool(&mut self, what: &str) -> Result<bool, TraceError> {
        let at = self.offset();
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(frame_err(at, format!("{what} is not a boolean: {other}"))),
        }
    }

    pub(crate) fn take_f64(&mut self, what: &str) -> Result<f64, TraceError> {
        let at = self.offset();
        let bytes = self.take(8, what)?;
        let bytes: [u8; 8] = bytes
            .try_into()
            .map_err(|_| frame_err(at, format!("{what} is not 8 bytes")))?;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    pub(crate) fn take_varint(&mut self, what: &str) -> Result<u64, TraceError> {
        let start = self.offset();
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8(what)?;
            if shift == 63 && byte > 1 {
                return Err(frame_err(start, format!("{what} varint overflows 64 bits")));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(frame_err(start, format!("{what} varint is too long")));
            }
        }
    }

    pub(crate) fn take_usize(&mut self, what: &str) -> Result<usize, TraceError> {
        let at = self.offset();
        let v = self.take_varint(what)?;
        usize::try_from(v).map_err(|_| frame_err(at, format!("{what} {v} overflows usize")))
    }

    pub(crate) fn take_str(&mut self, what: &str) -> Result<String, TraceError> {
        Ok(self.take_str_borrowed(what)?.to_string())
    }

    /// Borrow a varint-length-prefixed UTF-8 string straight from the frame
    /// buffer — the zero-copy decode path over a memory map.
    pub(crate) fn take_str_borrowed(&mut self, what: &str) -> Result<&'a str, TraceError> {
        let len = self.take_usize(what)?;
        let at = self.offset();
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| frame_err(at, format!("{what} is not valid UTF-8")))
    }

    /// A frame must be consumed exactly: trailing bytes mean a schema mismatch.
    pub(crate) fn expect_end(&mut self, what: &str) -> Result<(), TraceError> {
        if self.pos != self.buf.len() {
            return Err(frame_err(
                self.offset(),
                format!(
                    "{} trailing bytes after {what} frame",
                    self.buf.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The codec.
// ---------------------------------------------------------------------------

/// The compact binary plugin (format v2). Holds reusable scratch buffers, so one
/// codec instance encodes or decodes a whole stream without per-record
/// allocation.
#[derive(Debug, Default)]
pub struct BinaryCodec {
    scratch: Vec<u8>,
    frame: Vec<u8>,
}

impl BinaryCodec {
    /// A fresh binary codec.
    pub fn new() -> Self {
        BinaryCodec::default()
    }

    fn header(&self, w: &mut dyn Write, kind: StreamKind) -> Result<(), TraceError> {
        w.write_all(MAGIC.as_bytes())?;
        w.write_all(&[
            MAGIC_TERMINATOR,
            BINARY_FORMAT_VERSION as u8,
            kind_code(kind),
        ])?;
        Ok(())
    }

    /// Write `self.scratch` as one length-prefixed frame.
    fn write_frame(&mut self, w: &mut dyn Write) -> Result<(), TraceError> {
        let len = self.scratch.len() as u64;
        if len > MAX_FRAME_LEN {
            return Err(frame_err(
                0,
                format!("record encodes to {len} bytes, over the {MAX_FRAME_LEN}-byte frame cap"),
            ));
        }
        self.frame.clear();
        put_varint(&mut self.frame, len);
        w.write_all(&self.frame)?;
        w.write_all(&self.scratch)?;
        Ok(())
    }
}

impl TraceCodec for BinaryCodec {
    fn format(&self) -> TraceFormat {
        TraceFormat::Binary
    }

    fn begin_workload(
        &mut self,
        w: &mut dyn Write,
        meta: &WorkloadMeta,
        num_jobs: usize,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Workload)?;
        self.scratch.clear();
        workload_meta_body(&mut self.scratch, meta, num_jobs);
        self.write_frame(w)
    }

    fn encode_job(&mut self, w: &mut dyn Write, job: &JobSpec) -> Result<(), TraceError> {
        self.scratch.clear();
        job_body(&mut self.scratch, job);
        self.write_frame(w)
    }

    fn begin_execution(
        &mut self,
        w: &mut dyn Write,
        meta: &ExecutionMeta,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Execution)?;
        self.scratch.clear();
        execution_meta_body(&mut self.scratch, meta);
        self.write_frame(w)
    }

    fn encode_event(&mut self, w: &mut dyn Write, event: &SimTraceEvent) -> Result<(), TraceError> {
        self.scratch.clear();
        event_body(&mut self.scratch, event);
        self.write_frame(w)
    }

    fn finish(&mut self, _w: &mut dyn Write) -> Result<(), TraceError> {
        Ok(())
    }

    fn workload_items<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<WorkloadItems<'r>, TraceError> {
        let mut fr = FrameReader::new(r);
        let kind = fr.read_header()?;
        if kind != StreamKind::Workload {
            return Err(TraceError::WrongStream {
                expected: StreamKind::Workload,
                found: kind,
            });
        }
        let mut buf = Vec::new();
        let (meta, declared_jobs) = decode_workload_meta_frame(&mut fr, &mut buf)?;
        Ok(WorkloadItems::from_parts(
            TraceFormat::Binary,
            meta,
            declared_jobs,
            Box::new(BinaryWorkloadFrames {
                fr,
                buf,
                jobs: JobFrameDecoder::new(declared_jobs),
            }),
        ))
    }

    fn execution_events<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<ExecutionEvents<'r>, TraceError> {
        let mut fr = FrameReader::new(r);
        let kind = fr.read_header()?;
        if kind != StreamKind::Execution {
            return Err(TraceError::WrongStream {
                expected: StreamKind::Execution,
                found: kind,
            });
        }
        let mut buf = Vec::new();
        let meta = decode_execution_meta_frame(&mut fr, &mut buf)?;
        Ok(ExecutionEvents::from_parts(
            TraceFormat::Binary,
            meta,
            Box::new(BinaryExecutionFrames { fr, buf }),
        ))
    }

    fn peek_kind(&mut self, r: &mut dyn BufRead) -> Result<StreamKind, TraceError> {
        FrameReader::new(r).read_header()
    }
}

/// Read and decode the mandatory meta frame of a workload stream.
fn decode_workload_meta_frame<R: BufRead>(
    fr: &mut FrameReader<R>,
    buf: &mut Vec<u8>,
) -> Result<(WorkloadMeta, usize), TraceError> {
    let at = fr.offset;
    let Some(base) = fr.next_frame(buf)? else {
        return Err(frame_err(at, "workload trace has no meta frame"));
    };
    let mut body = Body::new(buf, base);
    workload_meta_from_body(&mut body, base)
}

/// Decode a workload meta frame body, tag check and trailing-byte check included.
pub(crate) fn workload_meta_from_body(
    body: &mut Body<'_>,
    base: u64,
) -> Result<(WorkloadMeta, usize), TraceError> {
    let tag = body.take_u8("frame tag")?;
    if tag != TAG_META {
        return Err(frame_err(
            base,
            format!("expected a meta frame first, found tag {tag:#04x}"),
        ));
    }
    let meta = WorkloadMeta {
        generator_seed: body.take_varint("generator_seed")?,
        sim_seed: body.take_varint("sim_seed")?,
        policy: body.take_str("policy")?,
        profile: body.take_str("profile")?,
        machines: body.take_usize("machines")?,
        slots_per_machine: body.take_usize("slots_per_machine")?,
    };
    let declared_jobs = body.take_usize("num_jobs")?;
    body.expect_end("meta")?;
    Ok((meta, declared_jobs))
}

/// Frame-at-a-time job puller behind [`WorkloadItems`]: one length-prefixed
/// frame is read into the reused buffer per pull and decoded by the shared
/// [`JobFrameDecoder`].
struct BinaryWorkloadFrames<R> {
    fr: FrameReader<R>,
    buf: Vec<u8>,
    jobs: JobFrameDecoder,
}

impl<R: BufRead> WorkloadFrames for BinaryWorkloadFrames<R> {
    fn next_job(&mut self) -> Option<Result<JobSpec, TraceError>> {
        let frame = self
            .fr
            .next_frame(&mut self.buf)
            .map(|base| base.map(|base| (self.buf.as_slice(), base)));
        let job = self.jobs.next(frame, self.fr.offset)?;
        Some(job.map(|job| job.to_spec()))
    }
}

/// Bytes of one fixed-width task record on the v2 wire: a stage byte plus the
/// eight raw bits of the work `f64`.
const TASK_RECORD_LEN: usize = 9;

/// The one decoder of workload job frames, shared by the streamed v2, the
/// compressed v3 and the memory-mapped reads. It checks the frame tag, decodes
/// and validates the job in place, rejects trailing bytes, and at end of
/// stream checks the job count the meta frame declared — so every read path
/// fails on the same input with the same error at the same offset.
pub(crate) struct JobFrameDecoder {
    declared: usize,
    seen: usize,
}

impl JobFrameDecoder {
    /// A decoder for a stream whose meta frame declares `declared` jobs.
    pub(crate) fn new(declared: usize) -> Self {
        JobFrameDecoder { declared, seen: 0 }
    }

    /// Decode the next job from `frame` — a frame body and its absolute
    /// offset, or `None` at a clean end of stream, where the declared job count
    /// is checked and a mismatch is reported at offset `end`.
    pub(crate) fn next<'a>(
        &mut self,
        frame: Result<Option<(&'a [u8], u64)>, TraceError>,
        end: u64,
    ) -> Option<Result<BorrowedJob<'a>, TraceError>> {
        match frame {
            Err(e) => Some(Err(e)),
            Ok(Some((frame, base))) => Some(self.decode(frame, base)),
            Ok(None) if self.seen == self.declared => None,
            Ok(None) => Some(Err(frame_err(
                end,
                format!(
                    "meta declares {} jobs but the trace contains {}",
                    self.declared, self.seen
                ),
            ))),
        }
    }

    fn decode<'a>(&mut self, frame: &'a [u8], base: u64) -> Result<BorrowedJob<'a>, TraceError> {
        let mut body = Body::new(frame, base);
        let tag = body.take_u8("frame tag")?;
        if tag != TAG_JOB {
            return Err(frame_err(
                base,
                format!("unknown frame tag {tag:#04x} in workload trace"),
            ));
        }
        self.seen += 1;
        let job = BorrowedJob::decode(&mut body)?;
        body.expect_end("job")?;
        Ok(job)
    }
}

/// One job decoded in place: scalar fields are parsed, the variable-length
/// regions (stage table, task records) stay as borrowed slices of the frame.
///
/// The job was fully validated when it was decoded — structurally and by
/// `JobSpec::validate_parts` — so the accessors are infallible.
#[derive(Debug, Clone, Copy)]
pub struct BorrowedJob<'a> {
    /// Job identifier.
    pub id: JobId,
    /// Arrival time in seconds from the start of the trace.
    pub arrival: f64,
    /// Approximation bound.
    pub bound: Bound,
    stage_count: usize,
    /// The encoded stage table: `(name:str task_count:varint)*`.
    stage_bytes: &'a [u8],
    /// The encoded task records: `(stage:u8 work:f64)*`, 9 bytes each.
    task_bytes: &'a [u8],
}

impl<'a> BorrowedJob<'a> {
    /// Decode a job frame body (tag already taken): scalars are parsed, the
    /// stage table and task records are captured as regions after a validating
    /// scan, and the job is checked by `JobSpec::validate_parts`. Every error
    /// names the absolute offset of the offending field.
    fn decode(body: &mut Body<'a>) -> Result<Self, TraceError> {
        let start = body.offset();
        let id = JobId(body.take_varint("job id")?);
        let arrival = body.take_f64("arrival")?;
        let bound_at = body.offset();
        let bound = match body.take_u8("bound kind")? {
            0 => Bound::Deadline(body.take_f64("deadline")?),
            1 => Bound::Error(body.take_f64("error bound")?),
            other => return Err(frame_err(bound_at, format!("bad bound kind {other}"))),
        };
        let stage_count = body.take_usize("stage count")?;
        let stages_from = body.position();
        let mut declared_tasks = 0usize;
        for _ in 0..stage_count {
            body.take_str_borrowed("stage name")?;
            declared_tasks = declared_tasks.saturating_add(body.take_usize("stage task count")?);
        }
        let stage_bytes = body.slice_between(stages_from, body.position());
        let task_count = body.take_usize("task count")?;
        let tasks_from = body.position();
        for _ in 0..task_count {
            body.take_u8("task stage")?;
            body.take_f64("task work")?;
        }
        let job = BorrowedJob {
            id,
            arrival,
            bound,
            stage_count,
            stage_bytes,
            task_bytes: body.slice_between(tasks_from, body.position()),
        };
        JobSpec::validate_parts(id, arrival, bound, stage_count, declared_tasks, job.tasks())
            .map_err(|e| frame_err(start, format!("decoded job is invalid: {e}")))?;
        Ok(job)
    }

    /// Number of DAG stages.
    pub fn stage_count(&self) -> usize {
        self.stage_count
    }

    /// Total number of tasks across all stages.
    pub fn task_count(&self) -> usize {
        self.task_bytes.len() / TASK_RECORD_LEN
    }

    /// Iterate the stage table zero-copy as `(name, task_count)` pairs; names
    /// borrow straight from the frame.
    pub fn stages(&self) -> BorrowedStages<'a> {
        BorrowedStages {
            body: Body::new(self.stage_bytes, 0),
            remaining: self.stage_count,
        }
    }

    /// Iterate the task records. [`TaskSpec`] is `Copy` and the records are
    /// fixed-width, so this decodes without allocating.
    pub fn tasks(&self) -> BorrowedTasks<'a> {
        BorrowedTasks {
            records: self.task_bytes,
        }
    }

    /// Sum of work over every task (the streamed analogue of
    /// `JobSpec::total_work`).
    pub fn total_work(&self) -> f64 {
        self.tasks().map(|t| t.work).sum()
    }

    /// Copy-on-demand escape hatch: materialise the owned [`JobSpec`] (already
    /// validated, at decode time).
    pub fn to_spec(&self) -> JobSpec {
        JobSpec {
            id: self.id,
            arrival: self.arrival,
            bound: self.bound,
            stages: self
                .stages()
                .map(|(name, task_count)| StageSpec {
                    name: name.to_string(),
                    task_count,
                })
                .collect(),
            tasks: self.tasks().collect(),
        }
    }
}

/// Zero-copy iterator over a [`BorrowedJob`]'s stage table.
pub struct BorrowedStages<'a> {
    body: Body<'a>,
    remaining: usize,
}

impl<'a> Iterator for BorrowedStages<'a> {
    type Item = (&'a str, usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The region was validated when the job was decoded, so these cannot
        // fail; `ok()?` keeps the accessor panic-free regardless.
        let name = self.body.take_str_borrowed("stage name").ok()?;
        let task_count = self.body.take_usize("stage task count").ok()?;
        Some((name, task_count))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Zero-copy iterator over a [`BorrowedJob`]'s fixed-width task records.
pub struct BorrowedTasks<'a> {
    records: &'a [u8],
}

impl Iterator for BorrowedTasks<'_> {
    type Item = TaskSpec;

    fn next(&mut self) -> Option<Self::Item> {
        let record = self.records.get(..TASK_RECORD_LEN)?;
        self.records = self.records.get(TASK_RECORD_LEN..).unwrap_or(&[]);
        let (&stage, bits) = record.split_first()?;
        let bits: [u8; 8] = bits.try_into().ok()?;
        Some(TaskSpec::in_stage(
            f64::from_bits(u64::from_le_bytes(bits)),
            stage,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.records.len() / TASK_RECORD_LEN;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BorrowedTasks<'_> {}

/// Read and decode the mandatory meta frame of an execution stream.
fn decode_execution_meta_frame<R: BufRead>(
    fr: &mut FrameReader<R>,
    buf: &mut Vec<u8>,
) -> Result<ExecutionMeta, TraceError> {
    let at = fr.offset;
    let Some(base) = fr.next_frame(buf)? else {
        return Err(frame_err(at, "execution trace has no meta frame"));
    };
    let mut body = Body::new(buf, base);
    execution_meta_from_body(&mut body, base)
}

/// Decode an execution meta frame body, tag check and trailing-byte check included.
pub(crate) fn execution_meta_from_body(
    body: &mut Body<'_>,
    base: u64,
) -> Result<ExecutionMeta, TraceError> {
    let tag = body.take_u8("frame tag")?;
    if tag != TAG_META {
        return Err(frame_err(
            base,
            format!("expected a meta frame first, found tag {tag:#04x}"),
        ));
    }
    let meta = ExecutionMeta {
        sim_seed: body.take_varint("sim_seed")?,
        policy: body.take_str("policy")?,
        machines: body.take_usize("machines")?,
        slots_per_machine: body.take_usize("slots_per_machine")?,
    };
    body.expect_end("meta")?;
    Ok(meta)
}

/// Frame-at-a-time event puller behind [`ExecutionEvents`].
struct BinaryExecutionFrames<R> {
    fr: FrameReader<R>,
    buf: Vec<u8>,
}

impl<R: BufRead> ExecutionFrames for BinaryExecutionFrames<R> {
    fn next_event(&mut self) -> Option<Result<SimTraceEvent, TraceError>> {
        match self.fr.next_frame(&mut self.buf) {
            Err(e) => Some(Err(e)),
            Ok(Some(base)) => {
                let mut body = Body::new(&self.buf, base);
                Some(decode_event(&mut body).and_then(|event| {
                    body.expect_end("event")?;
                    Ok(event)
                }))
            }
            Ok(None) => None,
        }
    }
}

pub(crate) fn decode_event(body: &mut Body<'_>) -> Result<SimTraceEvent, TraceError> {
    let tag_at = body.offset();
    let tag = body.take_u8("frame tag")?;
    let time = body.take_f64("event time")?;
    let job = JobId(body.take_varint("job id")?);
    let take_task = |body: &mut Body<'_>| -> Result<TaskId, TraceError> {
        let at = body.offset();
        let raw = body.take_varint("task id")?;
        u32::try_from(raw)
            .map(TaskId)
            .map_err(|_| frame_err(at, format!("task id {raw} overflows u32")))
    };
    match tag {
        TAG_ARRIVE => Ok(SimTraceEvent::JobArrival { time, job }),
        TAG_DECIDE => {
            let task = take_task(body)?;
            let at = body.offset();
            let kind = match body.take_u8("decision kind")? {
                0 => ActionKind::Launch,
                1 => ActionKind::Speculate,
                other => return Err(frame_err(at, format!("unknown decision kind {other}"))),
            };
            Ok(SimTraceEvent::Decision {
                time,
                job,
                task,
                kind,
            })
        }
        TAG_LAUNCH => Ok(SimTraceEvent::CopyLaunch {
            time,
            job,
            task: take_task(body)?,
            copy: body.take_varint("copy id")?,
            slot: SlotId {
                machine: body.take_usize("slot machine")?,
                slot: body.take_usize("slot index")?,
            },
            duration: body.take_f64("duration")?,
            speculative: body.take_bool("speculative flag")?,
        }),
        TAG_FINISH => Ok(SimTraceEvent::CopyFinish {
            time,
            job,
            task: take_task(body)?,
            copy: body.take_varint("copy id")?,
            task_completed: body.take_bool("completion flag")?,
        }),
        TAG_KILL => Ok(SimTraceEvent::CopyKill {
            time,
            job,
            task: take_task(body)?,
            copy: body.take_varint("copy id")?,
            slot: SlotId {
                machine: body.take_usize("slot machine")?,
                slot: body.take_usize("slot index")?,
            },
        }),
        TAG_JOBDONE => Ok(SimTraceEvent::JobFinish {
            time,
            job,
            completed_input: body.take_usize("completed input")?,
            completed_total: body.take_usize("completed total")?,
        }),
        other => Err(frame_err(
            tag_at,
            format!("unknown frame tag {other:#04x} in execution trace"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut body = Body::new(&buf, 0);
            assert_eq!(body.take_varint("v").unwrap(), v, "{v}");
            body.expect_end("v").unwrap();
        }
    }

    #[test]
    fn body_errors_name_their_offset() {
        // A varint that never terminates (all continuation bits set).
        let buf = [0xFFu8; 11];
        let mut body = Body::new(&buf, 100);
        let err = body.take_varint("x").unwrap_err();
        assert!(
            matches!(err, TraceError::Frame { offset: 100, .. }),
            "{err}"
        );

        // Reading past the end of the frame names the current position.
        let buf = [0u8; 3];
        let mut body = Body::new(&buf, 50);
        body.take_u8("a").unwrap();
        let err = body.take_f64("b").unwrap_err();
        assert!(matches!(err, TraceError::Frame { offset: 51, .. }), "{err}");
    }

    #[test]
    fn floats_survive_raw_bits_round_trips() {
        for v in [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut body = Body::new(&buf, 0);
            assert_eq!(body.take_f64("v").unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn header_round_trips_both_kinds() {
        let mut codec = BinaryCodec::new();
        for kind in [StreamKind::Workload, StreamKind::Execution] {
            let mut bytes = Vec::new();
            codec.header(&mut bytes, kind).unwrap();
            assert_eq!(bytes.len(), 14);
            assert_eq!(codec.peek_kind(&mut &bytes[..]).unwrap(), kind);
        }
    }
}
