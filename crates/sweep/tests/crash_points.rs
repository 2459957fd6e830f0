//! Crash-point enumeration for the journal's group commit (the method
//! of Pillai et al., "All File Systems Are Not Created Equal", OSDI
//! 2014): a warm journaled sweep appends all of its cache hits as one
//! batch with a single fsync, so a crash can leave any prefix of that
//! batch on disk, its last line possibly torn. Every such prefix must
//! resume to an artifact byte-identical to the uninterrupted one.

use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_core::{CorpusSpec, SchedulingPolicy, SchemeKind};
use regwin_machine::TimingKind;
use regwin_sweep::{records_to_json, SweepConfig, SweepEngine};
use std::path::Path;

fn spec() -> MatrixSpec {
    MatrixSpec {
        corpus: CorpusSpec::small(),
        behaviors: vec![
            Behavior::new(Concurrency::High, Granularity::Medium),
            Behavior::new(Concurrency::Low, Granularity::Fine),
        ],
        schemes: SchemeKind::ALL.to_vec(),
        windows: vec![4, 8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

/// A journaled engine on `cache`, resuming `journal` when `resume`.
fn journaled(cache: &Path, journal: &Path, resume: bool) -> SweepEngine {
    SweepEngine::try_with_config(
        SweepConfig::builder()
            .cache_dir(cache)
            .workers(2)
            .journal(journal)
            .resume(resume)
            .build()
            .unwrap(),
    )
    .expect("journal is free")
}

#[test]
fn every_cut_of_a_group_committed_hit_batch_resumes_byte_identically() {
    let dir =
        std::env::temp_dir().join(format!("regwin-sweep-crash-points-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache");
    let journal = dir.join("BENCH_sweep.json.journal.jsonl");
    let spec = spec();

    // Prime the cache, then run the sweep warm under a journal: every
    // cell is a hit, and all of them land in one group commit.
    SweepEngine::with_config(SweepConfig::builder().cache_dir(&cache).build().unwrap())
        .run_matrix(&spec)
        .unwrap();
    let warm = journaled(&cache, &journal, false);
    let want_records = records_to_json(&warm.run_matrix(&spec).unwrap());
    assert_eq!(warm.summary().cache_hits, spec.len(), "the journaled run must be all hits");
    let want = warm.artifact_value().to_json();
    drop(warm);

    let full = std::fs::read_to_string(&journal).unwrap();
    let ends: Vec<usize> = full.match_indices('\n').map(|(at, _)| at + 1).collect();
    assert_eq!(ends.len(), spec.len(), "one journal line per hit");

    // A cut after every whole line of the batch (0 ..= all of them),
    // plus one in the middle of a line.
    let mut cuts: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).collect();
    let middle = ends.len() / 2;
    cuts.push((ends[middle - 1] + ends[middle]) / 2);
    for cut in cuts {
        std::fs::write(&journal, &full.as_bytes()[..cut]).unwrap();
        let resumed = journaled(&cache, &journal, true);
        let records = resumed.run_matrix(&spec).unwrap();
        assert_eq!(records_to_json(&records), want_records, "records after a cut at byte {cut}");
        assert_eq!(
            resumed.artifact_value().to_json(),
            want,
            "artifact after a cut at byte {cut} must be byte-identical"
        );
        drop(resumed);
        assert_eq!(
            regwin_sweep::replay_journal(&journal).jobs.len(),
            spec.len(),
            "the resumed journal is whole again after a cut at byte {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
