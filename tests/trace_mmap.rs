//! Integration tests of the zero-copy mmap read path: borrowed decode must be
//! bit-identical to the eager decode, replay digests must agree across every
//! format *and* read path (text, binary, compressed, mmap), error diagnostics
//! must match the buffered reader byte for byte, and `open_workload_source`,
//! which maps regular v2 files itself, must read every other input as before.

use grass::prelude::*;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("grass-mmap-test-{tag}-{}", std::process::id()))
}

fn recorded_trace() -> WorkloadTrace {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(8)
        .with_bound(BoundSpec::paper_errors());
    record_workload(&config, 21, 43, "GRASS", 4, 4)
}

#[test]
fn mapped_decode_is_bit_identical_to_eager_decode() {
    let trace = recorded_trace();
    let path = temp_path("decode");
    std::fs::write(&path, trace.to_bytes_as(TraceFormat::Binary)).unwrap();

    let mapped = MappedWorkload::open(&path).unwrap();
    assert_eq!(mapped.meta(), &trace.meta);
    assert_eq!(mapped.declared_jobs(), trace.jobs.len());

    let mut count = 0;
    for (borrowed, original) in mapped.jobs().zip(trace.jobs.iter()) {
        let borrowed = borrowed.unwrap();
        assert_eq!(borrowed.id, original.id);
        assert_eq!(borrowed.arrival.to_bits(), original.arrival.to_bits());
        assert_eq!(borrowed.bound, original.bound);
        assert_eq!(borrowed.task_count(), original.tasks.len());
        // The owned escape hatch rebuilds the exact JobSpec, floats included.
        let owned = borrowed.to_spec();
        assert_eq!(&owned, original);
        for (a, b) in owned.tasks.iter().zip(original.tasks.iter()) {
            assert_eq!(a.work.to_bits(), b.work.to_bits());
        }
        count += 1;
    }
    assert_eq!(count, trace.jobs.len());
    drop(mapped);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_digests_are_identical_across_formats_and_read_paths() {
    let trace = recorded_trace();
    let sim = replay_config(&trace);
    let baseline = outcome_digest(&replay(&trace, &sim, &GrassFactory::new(sim.seed)));

    // Every encoding decodes to a trace whose replay digest is bit-identical.
    for format in TraceFormat::ALL {
        let decoded = WorkloadTrace::from_bytes(&trace.to_bytes_as(format)).unwrap();
        let digest = outcome_digest(&replay(&decoded, &sim, &GrassFactory::new(sim.seed)));
        assert_eq!(digest, baseline, "{format}");
    }

    // The mmap read path: borrowed jobs lifted through `to_spec` must replay to
    // the same digest as every buffered decode.
    let path = temp_path("replay");
    std::fs::write(&path, trace.to_bytes_as(TraceFormat::Binary)).unwrap();
    let mapped = MappedWorkload::open(&path).unwrap();
    let jobs: Vec<JobSpec> = mapped.jobs().map(|job| job.unwrap().to_spec()).collect();
    let from_map = WorkloadTrace::new(mapped.meta().clone(), jobs);
    let digest = outcome_digest(&replay(&from_map, &sim, &GrassFactory::new(sim.seed)));
    assert_eq!(digest, baseline, "mmap");
    drop(mapped);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mapped_errors_match_the_buffered_reader_exactly() {
    // Error parity: a truncated binary trace must produce the same TraceError
    // (message and byte offset) whether decoded from a map or from a reader.
    let trace = recorded_trace();
    let mut bytes = trace.to_bytes_as(TraceFormat::Binary);
    bytes.truncate(bytes.len() - 5);
    let buffered = WorkloadTrace::from_bytes(&bytes).unwrap_err();

    let path = temp_path("errors");
    std::fs::write(&path, &bytes).unwrap();
    let mapped = MappedWorkload::open(&path).unwrap();
    let from_map = mapped
        .jobs()
        .find_map(|job| job.err())
        .expect("truncated map must surface an error");
    assert_eq!(from_map.to_string(), buffered.to_string());
    drop(mapped);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn open_workload_source_reads_every_format_and_rejects_execution_streams() {
    let trace = recorded_trace();
    for format in TraceFormat::ALL {
        let path = temp_path(&format!("source-{format}"));
        std::fs::write(&path, trace.to_bytes_as(format)).unwrap();
        let (meta, source) =
            open_workload_source(&path).unwrap_or_else(|e| panic!("{format}: {e}"));
        assert_eq!(meta, trace.meta, "{format}");
        assert_eq!(source.total_jobs(), trace.jobs.len(), "{format}");
        let _ = std::fs::remove_file(&path);
    }

    // An execution stream is a WrongStream error.
    let exec = ExecutionTrace::new(
        ExecutionMeta {
            sim_seed: 0,
            policy: "GS".into(),
            machines: 1,
            slots_per_machine: 1,
        },
        vec![],
    );
    let path = temp_path("source-exec");
    std::fs::write(&path, exec.to_bytes_as(TraceFormat::Binary)).unwrap();
    assert!(matches!(
        open_workload_source(&path),
        Err(TraceError::WrongStream { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mapped_stats_fold_matches_streamed_stats_in_every_format() {
    let trace = recorded_trace();
    for format in TraceFormat::ALL {
        let path = temp_path(&format!("stats-{format}"));
        std::fs::write(&path, trace.to_bytes_as(format)).unwrap();
        let streamed = TraceStats::load(&path).unwrap();
        let mapped = TraceStats::load_mmap(&path).unwrap();
        assert_eq!(mapped, streamed, "{format}");
        assert_eq!(mapped.jobs, trace.jobs.len(), "{format}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The `decoded job is invalid: …` tail of a decode error, without the
/// line/offset prefix that differs between the text and binary codecs.
fn invalid_job_reason(err: &TraceError) -> String {
    let text = err.to_string();
    let at = text
        .find("decoded job is invalid: ")
        .unwrap_or_else(|| panic!("not a validation error: {text}"));
    text[at..].to_string()
}

#[test]
fn invalid_jobs_are_rejected_identically_by_every_decoder() {
    let valid = || JobSpec::multi_stage(3, 1.0, Bound::Error(0.1), vec![vec![1.0, 2.0], vec![3.0]]);
    // The text codec rejects a job without stages as malformed, so the empty
    // job keeps one stage with no tasks.
    let empty = JobSpec::single_stage(3, 1.0, Bound::Error(0.1), vec![]);
    let mut bad_bound = valid();
    bad_bound.bound = Bound::Error(1.5);
    let mut nan_arrival = valid();
    nan_arrival.arrival = f64::NAN;
    let mut negative_work = valid();
    negative_work.tasks[1].work = -2.0;
    let mut count_mismatch = valid();
    count_mismatch.stages[1].task_count = 4;
    let mut unknown_stage = valid();
    unknown_stage.tasks[2] = TaskSpec::in_stage(3.0, 7);
    let cases = [
        (empty, "has no tasks"),
        (bad_bound, "invalid approximation bound: error fraction"),
        (nan_arrival, "arrival time NaN"),
        (negative_work, "task 1 work -2"),
        (count_mismatch, "stage task counts sum to 6 but 3 tasks"),
        (unknown_stage, "undeclared stage"),
    ];
    for (job, rule) in cases {
        let trace = WorkloadTrace::new(recorded_trace().meta, vec![job]);
        let text = WorkloadTrace::from_bytes(&trace.to_bytes_as(TraceFormat::Text)).unwrap_err();
        let reason = invalid_job_reason(&text);
        assert!(reason.contains(rule), "{rule}: {reason}");

        let binary = trace.to_bytes_as(TraceFormat::Binary);
        let streamed = WorkloadTrace::from_bytes(&binary).unwrap_err();
        let compressed =
            WorkloadTrace::from_bytes(&trace.to_bytes_as(TraceFormat::Compressed)).unwrap_err();
        let path = temp_path(&format!("invalid-{}", rule.len()));
        std::fs::write(&path, &binary).unwrap();
        let mapped = MappedWorkload::open(&path)
            .unwrap()
            .jobs()
            .find_map(Result::err)
            .expect("mapped decode must reject the job");
        let source = open_workload_source(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);

        // Every binary read path names the same frame offset; all of them give
        // the text codec's reason.
        for (path, err) in [
            ("mapped", &mapped),
            ("compressed", &compressed),
            ("source", &source),
        ] {
            assert_eq!(err.to_string(), streamed.to_string(), "{rule} ({path})");
        }
        assert_eq!(invalid_job_reason(&streamed), reason, "{rule}");
    }
}

/// A v2 workload behind a pipe path (what a shell's `<(cat w.trace)` passes)
/// cannot be mapped; the mapped-by-default reads must stream it instead.
#[cfg(unix)]
#[test]
fn v2_workloads_read_through_a_pipe_path() {
    use std::io::Write;
    use std::os::fd::AsRawFd;

    let trace = recorded_trace();
    let bytes = trace.to_bytes_as(TraceFormat::Binary);
    let expected = TraceStats::from_bytes(&bytes).unwrap();
    let through_pipe = |read: &dyn Fn(&str)| {
        let (reader, mut writer) = std::io::pipe().unwrap();
        let payload = bytes.clone();
        let feeder = std::thread::spawn(move || {
            // A reader that fails early closes its end; the error is the test's.
            let _ = writer.write_all(&payload);
        });
        read(&format!("/dev/fd/{}", reader.as_raw_fd()));
        drop(reader);
        feeder.join().unwrap();
    };
    through_pipe(&|path| assert_eq!(TraceStats::load_mmap(path).unwrap(), expected));
    through_pipe(&|path| {
        let (meta, source) = open_workload_source(path).unwrap();
        assert_eq!(meta, trace.meta);
        assert_eq!(source.total_jobs(), trace.jobs.len());
    });
}
