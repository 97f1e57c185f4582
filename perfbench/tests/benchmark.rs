//! The benchmark's own tests: a tiny run of every workload, the metric
//! names and counts the benchmark contract allows, and the committed
//! `BENCHMARK.json`.

use perfbench::metrics::{manifest_json, result_line, valid_name, END_TO_END, PER_LAYER};
use perfbench::runner::{run, RunConfig};
use perfbench::trace::{Pass, Tracer};
use perfbench::workloads::{Size, Workload};

fn tiny_run(workload: Workload, trace: bool) -> perfbench::runner::RunOutcome {
    run(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
    })
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = tiny_run(workload, trace);
            assert_eq!(
                outcome.failed,
                0,
                "{} (trace {trace}): {:?}",
                workload.name(),
                outcome.failures
            );
            assert!(outcome.attempted > 1, "{} checked nothing", workload.name());
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected);
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let outcome = tiny_run(workload, false);
        for (name, value) in &outcome.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

#[test]
fn traced_run_records_spans_for_each_pass() {
    let outcome = tiny_run(Workload::ServiceSmall, true);
    let spans = outcome.tracer.spans();
    assert!(spans.iter().any(|s| s.name == "core.run"));
    // Traced passes are the odd ones; untraced passes record nothing.
    assert!(spans.iter().all(|s| s.pass % 2 == 1));
    assert!(spans.iter().all(|s| s.end >= s.start));
}

#[test]
fn self_time_subtracts_child_spans() {
    let mut tracer = Tracer::new();
    let mut pass = Pass::new(3, Some(&mut tracer));
    let busy = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
    pass.span("outer", |p| {
        busy(5);
        p.span("inner", |_| busy(20));
    });
    drop(pass);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    let self_times = tracer.self_times(3);
    let outer = spans[0].duration();
    let inner = spans[1].duration();
    assert!((self_times["outer"] - (outer - inner)).abs() < 1e-9);
    assert!((self_times["inner"] - inner).abs() < 1e-9);
    assert!(tracer.self_times(4).is_empty());
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    names.extend(PER_LAYER.iter().map(|m| m.name));
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for name in &names {
        assert!(valid_name(name), "invalid name {name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(
            (1..=16).contains(&unit.len())
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "invalid unit {unit}"
        );
    }
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
    assert!(!valid_name("sim p99"));
    assert!(!valid_name("_leading"));
    assert!(!valid_name(""));
}

#[test]
fn metric_counts_and_bounds_fit_the_contract() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((2..=8).contains(&Workload::ALL.len()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.unit, "s");
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(
            m.bound <= setup.bound,
            "{} has a larger bound than setup_s",
            m.name
        );
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let line = result_line(true, 3, 0, &[("setup_s", 0.5), ("job_s", 1.25)]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
         \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
         \"job_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
    );
}

#[test]
fn committed_benchmark_json_matches_the_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate it with `python3 perfbench/run.py --write-manifest`"
    );
}

#[test]
fn reference_speed_shrinks_times_and_grows_rates() {
    use perfbench::machine::at_reference_speed;
    assert_eq!(at_reference_speed("s", 3.0, 1.5), 2.0);
    assert_eq!(at_reference_speed("1/s", 2.0, 1.5), 3.0);
    assert_eq!(at_reference_speed("MB/s", 2.0, 1.5), 3.0);
    assert_eq!(at_reference_speed("MB", 2.0, 1.5), 2.0);
    // Every end-to-end unit is one the scaling knows; memory is the one
    // left as measured.
    for m in END_TO_END {
        assert!(
            ["s", "1/s", "MB/s", "MB"].contains(&m.unit),
            "{}: unit {} is not handled by at_reference_speed",
            m.name,
            m.unit
        );
    }
}
