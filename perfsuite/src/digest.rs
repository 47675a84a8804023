//! The correctness gate: a run's deterministic digest, the pinned
//! digests it is compared against, and the checks that hold for any seed.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The pinned seed-7 digests of full-size runs, compiled in.
pub const PINNED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic counts and report hashes of one run, by field name:
/// `events`, `issued`, `completed`, `failed`, `rejected`,
/// `sampled_traces`, `scrapes`, `alerts`, and `fnv.<report>` for every
/// rendered report. Equal seeds must give equal digests at any worker
/// count.
pub type Digest = BTreeMap<String, u64>;

/// Identifies a pinned run: workload name, seed and simulated ms.
pub type PinKey = (String, u64, u64);

/// Parses a digest file: `#` comments, then one line per pinned run,
/// `<workload> seed=<n> sim_ms=<n> <field>=<u64> …`.
pub fn parse_pins(text: &str) -> Result<BTreeMap<PinKey, Digest>, String> {
    let mut pins = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("digest file line {}: {what}: {line}", no + 1);
        let mut words = line.split_whitespace();
        let workload = words.next().expect("non-empty line").to_string();
        let mut fields = Digest::new();
        for w in words {
            let (k, v) = w.split_once('=').ok_or_else(|| bad("expected key=value"))?;
            let v: u64 = v.parse().map_err(|_| bad("value is not a u64"))?;
            fields.insert(k.to_string(), v);
        }
        let seed = fields.remove("seed").ok_or_else(|| bad("no seed="))?;
        let sim_ms = fields.remove("sim_ms").ok_or_else(|| bad("no sim_ms="))?;
        if pins.insert((workload, seed, sim_ms), fields).is_some() {
            return Err(bad("pinned twice"));
        }
    }
    Ok(pins)
}

/// Renders one digest file line (the inverse of [`parse_pins`]).
pub fn pin_line(key: &PinKey, digest: &Digest) -> String {
    let mut line = format!("{} seed={} sim_ms={}", key.0, key.1, key.2);
    for (k, v) in digest {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

/// Differences between a pinned and an observed digest, one line each,
/// prefixed `digest_mismatch`.
pub fn compare(workload: &str, pinned: &Digest, got: &Digest) -> Vec<String> {
    let mut keys: Vec<&String> = pinned.keys().chain(got.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| pinned.get(*k) != got.get(*k))
        .map(|k| {
            let show = |v: Option<&u64>| v.map_or_else(|| "absent".to_string(), u64::to_string);
            format!(
                "digest_mismatch {workload} {k}: pinned {} got {}",
                show(pinned.get(k)),
                show(got.get(k))
            )
        })
        .collect()
}

/// Problems of each run of one workload at one seed and length: the
/// run's own `problems`, every difference from the digest pinned at
/// `key` if there is one, and any difference from the first run's
/// digest (equal seeds must give equal digests at any worker count).
pub fn check_runs(
    pins: &BTreeMap<PinKey, Digest>,
    key: &PinKey,
    runs: &[(&Digest, &[String])],
) -> Vec<Vec<String>> {
    let workload = key.0.as_str();
    runs.iter()
        .enumerate()
        .map(|(i, &(d, own))| {
            let mut p = own.to_vec();
            if let Some(pin) = pins.get(key) {
                p.extend(compare(workload, pin, d));
            }
            if d != runs[0].0 {
                p.push(format!(
                    "digest_mismatch {workload}: run {} differs from run 1 at the same seed",
                    i + 1
                ));
            }
            p
        })
        .collect()
}

/// The process's exit status: failure if any problem was found.
pub fn exit_code(problems: &[String]) -> ExitCode {
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks that hold at every seed: every issued request was completed,
/// failed or rejected once the run drained.
pub fn conservation(workload: &str, d: &Digest) -> Option<String> {
    let get = |k: &str| d.get(k).copied().unwrap_or(0);
    let (issued, completed, failed, rejected) = (
        get("issued"),
        get("completed"),
        get("failed"),
        get("rejected"),
    );
    (issued != completed + failed + rejected).then(|| {
        format!(
            "conservation {workload}: issued {issued} != completed {completed} + failed {failed} + rejected {rejected}"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn pins_round_trip_and_mismatches_are_named() {
        let key = ("twotier_hot".to_string(), 7, 80_000);
        let d: Digest = [("events".to_string(), 10), ("issued".to_string(), 2)].into();
        let pins = parse_pins(&format!("# header\n{}\n", pin_line(&key, &d))).unwrap();
        assert_eq!(pins[&key], d);
        let mut tampered = d.clone();
        tampered.insert("events".into(), 11);
        let diff = compare("twotier_hot", &d, &tampered);
        assert_eq!(
            diff,
            vec!["digest_mismatch twotier_hot events: pinned 10 got 11"]
        );
        assert!(
            parse_pins("w seed=1 events=2").is_err(),
            "sim_ms is required"
        );
    }

    #[test]
    fn conservation_counts_every_outcome() {
        let d: Digest = [
            ("issued".to_string(), 10),
            ("completed".to_string(), 7),
            ("failed".to_string(), 2),
            ("rejected".to_string(), 1),
        ]
        .into();
        assert_eq!(conservation("w", &d), None);
        let mut lost = d.clone();
        lost.insert("completed".into(), 6);
        assert!(conservation("w", &lost).is_some());
    }
}
