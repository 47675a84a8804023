//! The correctness gate in-process: a short run passes against its own
//! pinned digest, while one tampered count, or two runs of one seed that
//! disagree, name the mismatch and turn the exit status into a failure.

use std::collections::BTreeMap;
use std::process::ExitCode;

use dsb_perfsuite::digest::{self, check_runs, exit_code, Digest, PinKey};
use dsb_perfsuite::workloads::{run, RunConfig, RunResult, Workload, ALL};

fn short_run(w: Workload) -> RunResult {
    run(&RunConfig {
        sim_ms: 1_000,
        ..RunConfig::new(w, 7)
    })
}

/// The gate's problems and exit status for `runs` against `pin`.
fn gate(key: &PinKey, pin: &Digest, runs: &[(&Digest, &[String])]) -> (ExitCode, Vec<String>) {
    let pins = BTreeMap::from([(key.clone(), pin.clone())]);
    let problems = check_runs(&pins, key, runs).concat();
    (exit_code(&problems), problems)
}

#[test]
fn tampered_digest_fails_the_gate() {
    let w = Workload::TwotierHot;
    let r = short_run(w);
    let own = r.problems(w);
    let key = (w.name().to_string(), 7, 1_000);

    let (code, problems) = gate(&key, &r.digest, &[(&r.digest, &own)]);
    assert_eq!(code, ExitCode::SUCCESS, "{problems:?}");

    let mut tampered = r.digest.clone();
    *tampered.get_mut("events").expect("events is digested") += 1;
    let (code, problems) = gate(&key, &tampered, &[(&r.digest, &own)]);
    assert_eq!(code, ExitCode::FAILURE);
    assert!(
        problems
            .iter()
            .any(|p| p.starts_with("digest_mismatch twotier_hot events: pinned")),
        "{problems:?}"
    );
}

#[test]
fn replays_of_one_seed_must_agree_without_a_pin() {
    let w = Workload::TwotierChaos;
    let r = short_run(w);
    let own = r.problems(w);
    let mut other = r.digest.clone();
    *other.get_mut("completed").expect("completed is digested") += 1;
    let key = (w.name().to_string(), 7, 1_000);
    let problems = check_runs(&BTreeMap::new(), &key, &[(&r.digest, &own), (&other, &own)]);
    assert!(problems[0].is_empty(), "{:?}", problems[0]);
    assert_eq!(
        problems[1],
        vec!["digest_mismatch twotier_chaos: run 2 differs from run 1 at the same seed"]
    );
    assert_eq!(exit_code(&problems.concat()), ExitCode::FAILURE);
}

#[test]
fn every_workload_is_pinned_at_full_length() {
    let pins = digest::parse_pins(digest::PINNED).expect("digests.txt parses");
    for w in ALL {
        let key = (w.name().to_string(), 7, w.default_sim_ms());
        assert!(pins.contains_key(&key), "{} is not pinned", w.name());
    }
    assert_eq!(pins.len(), ALL.len());
}
