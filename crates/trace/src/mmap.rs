//! Zero-copy memory-mapped reads of binary (v2) workload traces.
//!
//! [`MappedWorkload`] maps a trace file and decodes it *in place*: frames are
//! located through the same length-prefix walk as the streamed reader, and each
//! [`BorrowedJob`] holds `&[u8]`/`&str` slices straight into the map — stage
//! names, the stage table and the fixed-width task records are never copied.
//! Iterating jobs therefore allocates nothing per record; the copy-on-demand
//! escape hatch into the owned types is [`BorrowedJob::to_spec`].
//!
//! Strictness is not relaxed: job frames go through the same
//! `JobFrameDecoder` as the streamed v2 and v3 reads, with the map index as the
//! base offset, so a corrupt trace fails with an error **byte-identical** to
//! the streamed decoder's.
//!
//! Nobody opts in to this path. [`open_workload_source`] and
//! [`TraceStats::load_mmap`] map a file themselves when it is a regular file
//! holding a v2 workload stream, and stream everything else — text and v3
//! traces, execution streams, and pipes, which have no pages to map.
//!
//! [`open_workload_source`]: crate::open_workload_source
//! [`TraceStats::load_mmap`]: crate::TraceStats::load_mmap
//!
//! # Safety
//!
//! The map is created read-only and private. The one soundness contract —
//! inherited from `mmap(2)`, not from this crate — is that the underlying file
//! must not be truncated or mutated while the map is alive; trace files are
//! written once and then read, so the contract holds for every consumer in this
//! workspace.

use std::fs::File;
use std::path::Path;

use crate::binary::{
    frame_err, workload_meta_from_body, Body, BorrowedJob, FrameReader, JobFrameDecoder,
};
use crate::codec::{StreamKind, TraceError, BINARY_FORMAT_VERSION};
use crate::format::{sniff_bytes, sniff_format, TraceFormat, SNIFF_LEN};
use crate::workload::WorkloadMeta;

/// A binary (v2) workload trace mapped into memory, decoded in place.
///
/// Opening validates the header and decodes the meta frame; jobs are decoded
/// lazily and zero-copy by [`jobs`](MappedWorkload::jobs).
#[derive(Debug)]
pub struct MappedWorkload {
    map: memmap2::Mmap,
    meta: WorkloadMeta,
    declared_jobs: usize,
    /// Map offset of the first job frame (just past the meta frame).
    jobs_at: u64,
}

impl MappedWorkload {
    /// Map a binary workload trace file and validate its header and meta frame.
    ///
    /// Fails with the same errors as the streamed decoder: [`TraceError::BadMagic`]
    /// for non-trace files, [`TraceError::UnsupportedVersion`] for other format
    /// versions (including text and v3 traces, which have no in-place
    /// representation), [`TraceError::WrongStream`] for execution traces.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        MappedWorkload::from_map(map_file(path.as_ref())?)
    }

    /// Map `path` when it is a regular file whose header names a v2 workload
    /// stream; `None` for every other input, which the caller streams. Pipes
    /// and other special files report no length, so mapping one would read as
    /// an empty file.
    pub(crate) fn open_if_v2_workload(path: &Path) -> Result<Option<Self>, TraceError> {
        if !std::fs::metadata(path).is_ok_and(|m| m.is_file()) {
            return Ok(None);
        }
        let map = map_file(path)?;
        if !matches!(
            sniff_bytes(&map),
            Ok((TraceFormat::Binary, StreamKind::Workload))
        ) {
            return Ok(None);
        }
        MappedWorkload::from_map(map).map(Some)
    }

    fn from_map(map: memmap2::Mmap) -> Result<Self, TraceError> {
        let data: &[u8] = &map;
        // Text traces share the magic but not the framing; reading one here
        // must say "wrong version", not mis-parse the header, so sniff first.
        if sniff_format(data.get(..SNIFF_LEN).unwrap_or(data))? == TraceFormat::Text {
            return Err(TraceError::UnsupportedVersion(crate::codec::FORMAT_VERSION));
        }
        let mut fr = FrameReader::new(data);
        let kind = fr.read_header_version(BINARY_FORMAT_VERSION)?;
        if kind != StreamKind::Workload {
            return Err(TraceError::WrongStream {
                expected: StreamKind::Workload,
                found: kind,
            });
        }
        let at = fr.offset;
        let Some((frame, base)) = fr.next_frame_borrowed()? else {
            return Err(frame_err(at, "workload trace has no meta frame"));
        };
        let mut body = Body::new(frame, base);
        let (meta, declared_jobs) = workload_meta_from_body(&mut body, base)?;
        let jobs_at = fr.offset;
        Ok(MappedWorkload {
            map,
            meta,
            declared_jobs,
            jobs_at,
        })
    }

    /// The trace's meta record, decoded at open.
    pub fn meta(&self) -> &WorkloadMeta {
        &self.meta
    }

    /// Number of jobs the meta record declares; enforced against the actual
    /// frame count when a [`jobs`](MappedWorkload::jobs) iteration reaches the
    /// end of the map.
    pub fn declared_jobs(&self) -> usize {
        self.declared_jobs
    }

    /// Size of the mapped file in bytes.
    pub fn size_bytes(&self) -> usize {
        self.map.len()
    }

    /// Iterate the jobs zero-copy: each [`BorrowedJob`] borrows from the map.
    ///
    /// Every call walks the frames from the start; like the streamed decoder,
    /// the iterator is fused after the first error and enforces the declared
    /// job count at end of stream (prefix reads that stop early skip the check
    /// by construction).
    pub fn jobs(&self) -> BorrowedJobs<'_> {
        let data: &[u8] = &self.map;
        let mut fr = FrameReader::new(data.get(self.jobs_at as usize..).unwrap_or(&[]));
        // Error offsets must be absolute map offsets, identical to the streamed
        // decoder's file offsets.
        fr.offset = self.jobs_at;
        BorrowedJobs {
            fr,
            jobs: JobFrameDecoder::new(self.declared_jobs),
            fused: false,
        }
    }
}

fn map_file(path: &Path) -> Result<memmap2::Mmap, TraceError> {
    let file = File::open(path)?;
    // SAFETY: read-only private mapping; trace files are write-once, so the
    // file is not mutated or truncated while the map is alive (module
    // contract above).
    Ok(unsafe { memmap2::Mmap::map(&file)? })
}

/// Zero-copy job iterator over a [`MappedWorkload`]; yields one
/// `Result<BorrowedJob, TraceError>` per job frame.
pub struct BorrowedJobs<'a> {
    fr: FrameReader<&'a [u8]>,
    jobs: JobFrameDecoder,
    fused: bool,
}

impl<'a> Iterator for BorrowedJobs<'a> {
    type Item = Result<BorrowedJob<'a>, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        let item = self
            .jobs
            .next(self.fr.next_frame_borrowed(), self.fr.offset);
        if matches!(item, Some(Err(_)) | None) {
            self.fused = true;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_workload, WorkloadTrace};
    use grass_workload::{BoundSpec, Framework, TraceProfile, WorkloadConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample_trace() -> WorkloadTrace {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(10)
            .with_bound(BoundSpec::paper_errors());
        record_workload(&config, 7, 11, "GRASS", 20, 4)
    }

    /// A uniquely-named trace file under the OS temp dir, removed on drop.
    struct TempTrace(PathBuf);

    impl TempTrace {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            TempTrace(std::env::temp_dir().join(format!(
                "grass-mmap-{tag}-{}-{seq}.trace",
                std::process::id()
            )))
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_binary(trace: &WorkloadTrace) -> TempTrace {
        let file = TempTrace::new("bin");
        trace.save_as(file.path(), TraceFormat::Binary).unwrap();
        file
    }

    #[test]
    fn borrowed_decode_matches_owned_decode() {
        let trace = sample_trace();
        let file = write_binary(&trace);
        let mapped = MappedWorkload::open(file.path()).unwrap();
        assert_eq!(mapped.meta(), &trace.meta);
        assert_eq!(mapped.declared_jobs(), trace.jobs.len());
        let jobs: Result<Vec<_>, _> = mapped.jobs().map(|j| j.map(|j| j.to_spec())).collect();
        let jobs = jobs.unwrap();
        assert_eq!(jobs, trace.jobs);
        // Bit-exact floats, borrowed accessors agree with the owned spec.
        for (borrowed, owned) in mapped.jobs().map(Result::unwrap).zip(&trace.jobs) {
            assert_eq!(borrowed.arrival.to_bits(), owned.arrival.to_bits());
            assert_eq!(borrowed.stage_count(), owned.stages.len());
            assert_eq!(borrowed.task_count(), owned.tasks.len());
            for ((name, count), stage) in borrowed.stages().zip(&owned.stages) {
                assert_eq!(name, stage.name);
                assert_eq!(count, stage.task_count);
            }
            for (task, owned_task) in borrowed.tasks().zip(&owned.tasks) {
                assert_eq!(task.stage, owned_task.stage);
                assert_eq!(task.work.to_bits(), owned_task.work.to_bits());
            }
        }
    }

    #[test]
    fn mapped_open_rejects_non_binary_and_wrong_streams() {
        let trace = sample_trace();
        let text = TempTrace::new("text");
        trace.save_as(text.path(), TraceFormat::Text).unwrap();
        assert!(matches!(
            MappedWorkload::open(text.path()),
            Err(TraceError::UnsupportedVersion(1))
        ));
        let v3 = TempTrace::new("v3");
        trace.save_as(v3.path(), TraceFormat::Compressed).unwrap();
        assert!(matches!(
            MappedWorkload::open(v3.path()),
            Err(TraceError::UnsupportedVersion(3))
        ));
        let junk = TempTrace::new("junk");
        std::fs::write(junk.path(), b"not a trace").unwrap();
        assert!(matches!(
            MappedWorkload::open(junk.path()),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn mmap_errors_match_streamed_errors_byte_for_byte() {
        let trace = sample_trace();
        let bytes = trace.to_bytes_as(TraceFormat::Binary);
        // The mapped decoder must produce exactly the streamed decoder's error
        // (or success) on every corrupt input: first the stream cut at byte
        // boundaries, then a single byte flipped anywhere in the job region.
        let file = TempTrace::new("corrupt");
        let check = |corrupt: &[u8], what: &str| {
            std::fs::write(file.path(), corrupt).unwrap();
            let streamed_err = crate::stream::WorkloadItems::open(corrupt)
                .map(|items| items.map(|j| j.map(|_| ())).collect::<Result<Vec<_>, _>>());
            let mapped_err = MappedWorkload::open(file.path()).map(|m| {
                m.jobs()
                    .map(|j| j.map(|_| ()))
                    .collect::<Result<Vec<_>, _>>()
            });
            match (streamed_err, mapped_err) {
                (Ok(Ok(_)), Ok(Ok(_))) => {}
                (Ok(Err(a)), Ok(Err(b))) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
                (a, b) => panic!("divergent outcomes at {what}: {a:?} vs {b:?}"),
            }
        };
        for cut in (20..bytes.len()).step_by(7) {
            check(&bytes[..cut], &format!("cut {cut}"));
        }
        let jobs_at = WorkloadTrace::new(trace.meta.clone(), Vec::new())
            .to_bytes_as(TraceFormat::Binary)
            .len();
        let mut flipped = bytes.clone();
        for at in (jobs_at..bytes.len()).step_by(5) {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[at] ^= mask;
                check(&flipped, &format!("byte {at} ^ {mask:#04x}"));
                flipped[at] ^= mask;
            }
        }
    }

    #[test]
    fn mmap_source_matches_streamed_source() {
        use crate::workload::open_workload_source;
        use grass_workload::JobSource;
        let trace = sample_trace();
        let file = write_binary(&trace);
        assert!(MappedWorkload::open_if_v2_workload(file.path())
            .unwrap()
            .is_some());
        let text = TempTrace::new("text-source");
        trace.save_as(text.path(), TraceFormat::Text).unwrap();
        let (meta_a, streamed) = open_workload_source(text.path()).unwrap();
        let (meta_b, mapped) = open_workload_source(file.path()).unwrap();
        assert_eq!(meta_a, meta_b);
        assert_eq!(streamed.label(), mapped.label());
        assert_eq!(streamed.jobs(0), mapped.jobs(0));
        // Warm-up prefixes decode only the requested jobs; same prefix either way.
        assert_eq!(streamed.warmup_jobs(0.3, 0), mapped.warmup_jobs(0.3, 0));
    }

    #[test]
    fn mmap_source_falls_back_for_other_formats() {
        use crate::workload::open_workload_source;
        use grass_workload::JobSource;
        let trace = sample_trace();
        for format in [TraceFormat::Text, TraceFormat::Compressed] {
            let file = TempTrace::new("fallback");
            trace.save_as(file.path(), format).unwrap();
            assert!(MappedWorkload::open_if_v2_workload(file.path())
                .unwrap()
                .is_none());
            let (meta, source) = open_workload_source(file.path()).unwrap();
            assert_eq!(meta, trace.meta, "{format}");
            assert_eq!(source.jobs(0), trace.jobs, "{format}");
        }
    }
}
