//! Fig. 21 — microservices on serverless frameworks.
//!
//! Top: latency distribution (p5/p25/p50/p75/p95) and cost for every
//! end-to-end service on EC2 containers, AWS-Lambda-style functions with
//! S3 state passing, and Lambda with remote-memory state passing.
//! Expected shape: Lambda(S3) ≫ Lambda(mem) > EC2 in latency; Lambda costs
//! roughly an order of magnitude less at this (modest, intermittent) load.
//!
//! Bottom: a compressed diurnal load pattern on Social Network — the EC2
//! threshold autoscaler lags the ramp, Lambda absorbs it per-request.

use dsb_apps::{banking, ecommerce, media, social, swarm, BuiltApp};
use dsb_cluster::{Autoscaler, ScalePolicy};
use dsb_core::ServiceId;
use dsb_serverless::{ec2_cost, lambda_cost_for_run, to_serverless, ExecutionMode, Pricing};
use dsb_simcore::SimDuration;
use dsb_workload::DiurnalPattern;

use crate::harness::{build_sim, drive, drive_ticked, make_cluster, merged_latency};
use crate::report::Table;
use crate::Scale;

struct ModeResult {
    q: [f64; 5], // p5/p25/p50/p75/p95 in ms
    cost_usd: f64,
}

fn run_mode(app: &BuiltApp, mode: ExecutionMode, qps: f64, secs: u64, seed: u64) -> ModeResult {
    let backends: Vec<ServiceId> = app
        .spec
        .services
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.name.contains("memcached") || s.name.contains("mongodb") || s.name.contains("mysql")
        })
        .map(|(i, _)| ServiceId(i as u32))
        .collect();
    let rewritten = to_serverless(&app.spec, mode, &backends);
    let mut sapp = app.clone();
    sapp.spec = rewritten.app;
    let mut cluster = make_cluster(8);
    cluster.trace_sample_prob = 0.0;
    let (mut sim, mut load) = build_sim(&sapp, cluster, seed);
    drive(&mut sim, &mut load, 0, secs, qps);
    sim.run_until_idle();
    let h = merged_latency(&sim, 1, secs + 60);
    let q = [
        h.quantile(0.05) as f64 / 1e6,
        h.quantile(0.25) as f64 / 1e6,
        h.quantile(0.50) as f64 / 1e6,
        h.quantile(0.75) as f64 / 1e6,
        h.quantile(0.95) as f64 / 1e6,
    ];
    // Normalize cost to the paper's 10-minute runs.
    let factor = 600.0 / secs as f64;
    let cost_usd = match mode {
        ExecutionMode::Ec2 => {
            ec2_cost(&sim, SimDuration::from_secs(secs), &Pricing::default()).total() * factor
        }
        _ => {
            lambda_cost_for_run(
                &sim,
                rewritten.store,
                mode == ExecutionMode::LambdaS3,
                SimDuration::from_secs(secs),
                &Pricing::default(),
            )
            .total()
                * factor
        }
    };
    ModeResult { q, cost_usd }
}

/// Regenerates Fig. 21.
pub fn run(scale: Scale) -> String {
    let secs = scale.secs(30);
    let mut t = Table::new(
        "Fig 21 (top): latency quartiles (ms) + cost per 10min, per execution mode",
        &[
            "application",
            "mode",
            "p5",
            "p25",
            "p50",
            "p75",
            "p95",
            "cost ($)",
        ],
    );
    let apps: Vec<(BuiltApp, f64)> = vec![
        (social::social_network(), 60.0),
        (media::media_service(), 50.0),
        (ecommerce::ecommerce(), 50.0),
        (banking::banking(), 50.0),
        (swarm::swarm(swarm::SwarmVariant::Cloud), 25.0),
    ];
    for (i, (app, qps)) in apps.iter().enumerate() {
        for mode in [
            ExecutionMode::Ec2,
            ExecutionMode::LambdaS3,
            ExecutionMode::LambdaMem,
        ] {
            let r = run_mode(app, mode, *qps, secs, 150 + i as u64);
            t.row_owned(vec![
                app.spec.name.clone(),
                mode.label().to_string(),
                format!("{:.1}", r.q[0]),
                format!("{:.1}", r.q[1]),
                format!("{:.1}", r.q[2]),
                format!("{:.1}", r.q[3]),
                format!("{:.1}", r.q[4]),
                format!("{:.2}", r.cost_usd),
            ]);
        }
    }

    // Bottom: diurnal pattern, EC2 + autoscaler vs Lambda(mem).
    let secs2 = scale.secs(120);
    let pattern = DiurnalPattern {
        low_qps: 60.0,
        high_qps: 420.0,
        period: SimDuration::from_secs(secs2),
    };
    let mut tb = Table::new(
        "Fig 21 (bottom): diurnal load — per-second p99 (ms)",
        &["t (s)", "load (QPS)", "EC2", "Lambda (mem)"],
    );
    let series = |serverless: bool, seed: u64| -> Vec<f64> {
        let app = social::social_network();
        let (sapp, _store) = if serverless {
            let backends: Vec<ServiceId> = app
                .spec
                .services
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name.contains("memcached") || s.name.contains("mongodb"))
                .map(|(i, _)| ServiceId(i as u32))
                .collect();
            let r = to_serverless(&app.spec, ExecutionMode::LambdaMem, &backends);
            let mut a = app.clone();
            a.spec = r.app;
            (a, r.store)
        } else {
            (app.clone(), None)
        };
        let mut cluster = make_cluster(10);
        cluster.trace_sample_prob = 0.0;
        let (mut sim, mut load) = build_sim(&sapp, cluster, seed);
        let mut scaler = Autoscaler::new(ScalePolicy {
            cooldown: SimDuration::from_secs(15),
            max_instances: 30,
            ..ScalePolicy::default()
        });
        if !serverless {
            for i in 0..sapp.spec.service_count() {
                scaler.manage(ServiceId(i as u32));
            }
        }
        let mut out = Vec::new();
        {
            let out = &mut out;
            let scaler = &mut scaler;
            drive_ticked(
                &mut sim,
                &mut load,
                0,
                secs2,
                |t| pattern.qps(t),
                &mut |sim, s| {
                    scaler.tick(sim);
                    out.push(merged_latency(sim, s, s + 1).quantile(0.99) as f64 / 1e6);
                },
            );
        }
        out
    };
    let ec2 = series(false, 160);
    let lambda = series(true, 160);
    for s in 0..secs2 as usize {
        tb.row_owned(vec![
            s.to_string(),
            format!(
                "{:.0}",
                pattern.qps(dsb_simcore::SimTime::from_secs(s as u64))
            ),
            format!("{:.2}", ec2[s]),
            format!("{:.2}", lambda[s]),
        ]);
    }
    format!("{}\n{}", t.render(), tb.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s3_much_slower_mem_in_between_lambda_cheaper() {
        let app = social::social_network();
        let ec2 = run_mode(&app, ExecutionMode::Ec2, 40.0, 10, 1);
        let s3 = run_mode(&app, ExecutionMode::LambdaS3, 40.0, 10, 1);
        let mem = run_mode(&app, ExecutionMode::LambdaMem, 40.0, 10, 1);
        assert!(
            s3.q[2] > 2.0 * mem.q[2],
            "S3 median {} must far exceed mem {}",
            s3.q[2],
            mem.q[2]
        );
        assert!(
            mem.q[2] > ec2.q[2],
            "mem median {} must exceed EC2 {}",
            mem.q[2],
            ec2.q[2]
        );
        assert!(
            s3.cost_usd < ec2.cost_usd / 3.0,
            "lambda {} must be much cheaper than EC2 {}",
            s3.cost_usd,
            ec2.cost_usd
        );
    }
}
