//! Checks of the benchmark itself: fresh inputs per driver call, a
//! correctness verdict with teeth (a corrupted database or a panicking
//! transaction fails the run), exact work counts on `disk-serial`,
//! and agreement with `BENCHMARK.json`. Run them with
//! `cargo test --release --manifest-path tpccbench/Cargo.toml`; the
//! exact-repeat test loads a paper-scale warehouse three times.

use std::sync::Arc;

use tpcc_db::{loader, DbConfig, DriverConfig, InputGen, TpccDb};
use tpcc_obs::MemoryRecorder;
use tpccbench::{
    derive_seed, run_spec, work_counts, Spec, Stop, Stream, System, WorkCounts, Workload,
    END_TO_END, PER_LAYER,
};

/// `workload` on the miniature test database, with short driver calls.
fn small(workload: Workload) -> Spec {
    let mut spec = workload.spec();
    spec.db = DbConfig {
        io_delay_us: spec.db.io_delay_us,
        enable_wal: spec.db.enable_wal,
        group_commit: spec.db.group_commit,
        mvcc: spec.db.mvcc,
        ..DbConfig::small()
    };
    spec.batch = 200;
    spec.warmup_batches = 1;
    spec
}

fn first_inputs(db: &TpccDb, seed: u64) -> Vec<String> {
    let mut gen = InputGen::new(db, DriverConfig::default(), seed);
    (0..8).map(|_| format!("{:?}", gen.next_input())).collect()
}

#[test]
fn consecutive_driver_calls_draw_fresh_inputs() {
    let db = loader::load(DbConfig::small(), 1);
    let call = |seed, stream, n| first_inputs(&db, derive_seed(seed, stream, n));
    let first = call(42, Stream::Measured, 0);
    assert_ne!(first, call(42, Stream::Measured, 1), "consecutive calls");
    assert_ne!(first, call(42, Stream::Warmup, 0), "warm-up and measured");
    assert_ne!(
        first,
        call(43, Stream::Measured, 0),
        "another workload seed"
    );
    assert_eq!(
        first,
        call(42, Stream::Measured, 0),
        "the same workload seed"
    );
}

#[test]
fn every_workload_passes_its_verdict_and_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run_spec(small(workload), 3, Stop::Batches(5), trace, |_| {});
            let name = workload.name();
            assert!(report.correct, "{name}: {:?}", report.failures);
            assert_eq!(report.failed, 0, "{name}");
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let want: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(names, want, "{name}");
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{name}: {:?}",
                report.metrics
            );
        }
    }
}

#[test]
fn a_corrupted_district_fails_the_run() {
    for workload in Workload::ALL {
        // the last database: a cluster's second node must be checked too
        let report = run_spec(small(workload), 5, Stop::Batches(5), false, |sys| {
            let dbs = sys.dbs();
            let db = dbs.last().expect("a database");
            db.corrupt_district_ytd(0, 0, -1.0);
        });
        let name = workload.name();
        assert!(!report.correct, "{name}");
        assert!(
            report.metrics.is_empty(),
            "{name}: a failed run reports no numbers"
        );
        assert_eq!(report.failed, report.attempted, "{name}");
        assert!(
            report.failures.iter().any(|f| f.contains("consistency")),
            "{name}: {:?}",
            report.failures
        );
    }
}

#[test]
fn a_panicking_transaction_fails_the_run() {
    for workload in Workload::ALL {
        // a New-Order of no lines that must roll back: the input
        // generator panics inside a terminal thread
        let mut spec = small(workload);
        spec.driver.items_per_order = 0;
        spec.driver.rollback_prob = 1.0;
        let report = run_spec(spec, 7, Stop::Batches(5), false, |_| {});
        let name = workload.name();
        assert!(!report.correct, "{name}");
        assert!(report.metrics.is_empty(), "{name}");
        assert_eq!(report.failed, report.attempted, "{name}");
        assert!(
            report.failures.iter().any(|f| f.contains("panicked")),
            "{name}: {:?}",
            report.failures
        );
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": false, "), "{name}: {json}");
    }
}

fn disk_serial_counts(seed: u64) -> WorkCounts {
    let spec = Workload::DiskSerial.spec();
    let mut sys = System::setup(spec, seed);
    sys.run_phase(Stream::Warmup, Stop::Batches(1));
    let recorder = Arc::new(MemoryRecorder::new());
    sys.attach(&recorder, None);
    let phase = sys.run_phase(Stream::Measured, Stop::Batches(2));
    assert_eq!(phase.executed_total(), 2 * spec.batch);
    work_counts(&recorder)
}

#[test]
fn disk_serial_work_counts_repeat_exactly() {
    let a = disk_serial_counts(11);
    assert_eq!(a, disk_serial_counts(11), "same seed");
    let b = disk_serial_counts(12);
    assert_ne!(a.fixes, b.fixes, "another seed");
    assert_ne!(a.misses, b.misses, "another seed");
    assert_ne!(a.node_visits, b.node_visits, "another seed");
    assert_ne!(a.wal_bytes, b.wal_bytes, "another seed");
    assert_ne!(a.lock_acquires, b.lock_acquires, "another seed");
}

#[test]
fn benchmark_json_names_known_workloads_and_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    let listed = Workload::ALL
        .into_iter()
        .filter(|w| named(w.name()))
        .count();
    assert!(listed >= 2, "at least two workloads");
    for name in END_TO_END.into_iter().chain(PER_LAYER) {
        assert!(named(name), "{name}");
    }
    // nothing else is named: every listed workload is one the code runs
    assert_eq!(
        json.matches("\"name\": ").count(),
        listed + END_TO_END.len() + PER_LAYER.len()
    );
}
