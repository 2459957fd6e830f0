//! Crash-point enumeration for the journal's durability rule (the
//! method of Pillai et al., "All File Systems Are Not Created Equal",
//! OSDI 2014). An executed job's line is appended and fsync'd when the
//! job finishes; a cache hit writes no line, because the checksummed
//! cache entry it was served from is its durable record. A crash can
//! leave any prefix of the journal on disk, its last line possibly torn.
//! Every such prefix must resume to records and an artifact
//! byte-identical to the uninterrupted run's, both with the cache intact
//! and with a hit's entry lost before the resume.

use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_core::{CorpusSpec, SchedulingPolicy, SchemeKind};
use regwin_machine::TimingKind;
use regwin_sweep::{records_to_json, replay_journal, JobKey, SweepConfig, SweepEngine};
use std::path::{Path, PathBuf};

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

/// The cache entry of every cell of `spec`, in the engine's cell order.
fn entries(spec: &MatrixSpec, cache: &Path) -> Vec<PathBuf> {
    let mut paths = Vec::new();
    for &behavior in &spec.behaviors {
        for &scheme in &spec.schemes {
            for &nwindows in &spec.windows {
                let key = JobKey::for_cell(spec, behavior, scheme, nwindows);
                paths.push(cache.join(format!("{}.json", key.id())));
            }
        }
    }
    paths
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

/// A fresh state directory with the cache primed for every cell of
/// `spec`; returns the cache and journal paths.
fn primed(tag: &str, spec: &MatrixSpec) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir()
        .join(format!("regwin-sweep-crash-points-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache");
    SweepEngine::with_config(SweepConfig::builder().cache_dir(&cache).build().unwrap())
        .run_matrix(spec)
        .unwrap();
    let journal = dir.join("BENCH_sweep.json.journal.jsonl");
    (dir, cache, journal)
}

#[test]
fn a_fully_warm_journaled_sweep_writes_no_journal_bytes() {
    let spec = spec();
    let (dir, cache, journal) = primed("warm", &spec);
    // A resumed journal, as a daemon session opens it: its file is
    // created at the first append, and a hit appends nothing.
    let warm = journaled(&cache, &journal, true);
    warm.run_matrix(&spec).unwrap();
    assert_eq!(warm.summary().cache_hits, spec.len(), "the journaled run must be all hits");
    drop(warm);
    assert!(!journal.exists(), "a hit writes no journal bytes, so no journal file is created");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_cut_of_a_mixed_sweeps_journal_resumes_byte_identically() {
    let spec = spec();
    let (dir, cache, journal) = primed("mixed", &spec);
    let entries = entries(&spec, &cache);

    // Every third cell misses the journaled run and is journaled; the
    // rest are hits and write nothing.
    let missed: Vec<usize> = (0..entries.len()).step_by(3).collect();
    for &i in &missed {
        std::fs::remove_file(&entries[i]).unwrap();
    }
    let mixed = journaled(&cache, &journal, false);
    let want_records = records_to_json(&mixed.run_matrix(&spec).unwrap());
    assert_eq!(mixed.summary().cache_misses, missed.len());
    let want = mixed.artifact_value().to_json();
    drop(mixed);

    let full = std::fs::read_to_string(&journal).unwrap();
    let ends: Vec<usize> = full.match_indices('\n').map(|(at, _)| at + 1).collect();
    assert_eq!(ends.len(), missed.len(), "one journal line per miss, none per hit");

    // A cut after every whole line (0 ..= all of them), plus one in the
    // middle of the last line.
    let mut cuts: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).collect();
    let last = ends.len() - 1;
    cuts.push((ends[last - 1] + ends[last]) / 2);
    // A cell that was a hit in the journaled run.
    let lost_hit = &entries[1];
    for cut in cuts {
        for lose_a_hit in [false, true] {
            std::fs::write(&journal, &full.as_bytes()[..cut]).unwrap();
            let journaled_lines = replay_journal(&journal).jobs.len();
            if lose_a_hit {
                std::fs::remove_file(lost_hit).unwrap();
            }
            let case = format!("a cut at byte {cut}, hit entry lost: {lose_a_hit}");
            let resumed = journaled(&cache, &journal, true);
            let records = resumed.run_matrix(&spec).unwrap();
            assert_eq!(records_to_json(&records), want_records, "records after {case}");
            assert_eq!(resumed.artifact_value().to_json(), want, "artifact after {case}");
            assert_eq!(
                resumed.summary().cache_misses,
                journaled_lines + usize::from(lose_a_hit),
                "only the lost hit re-executes after {case}"
            );
            drop(resumed);
            assert!(lost_hit.exists(), "the re-executed hit stores its entry again");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
