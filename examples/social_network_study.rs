//! Distributed-tracing study of the Social Network: provisioning (§3.8),
//! per-service latency breakdown, and critical-path analysis (§7).
//!
//! ```sh
//! cargo run --release --example social_network_study
//! ```

use deathstarbench_sim::apps::social;
use deathstarbench_sim::cluster::provision;
use deathstarbench_sim::core::{ClusterSpec, ServiceId, Simulation};
use deathstarbench_sim::simcore::SimDuration;
use deathstarbench_sim::trace::critical_path;
use deathstarbench_sim::workload::{OpenLoop, UserPopulation};

fn main() {
    let app = social::social_network();
    let mut cluster = ClusterSpec::xeon_cluster(10, 2);
    cluster.trace_sample_prob = 0.05; // keep 5% of traces whole
    let mut sim = Simulation::new(app.spec.clone(), cluster, 7);
    let mut load = OpenLoop::new(app.mix.clone(), UserPopulation::uniform(1000), 7);

    // §3.8: provision until no tier saturates before the others.
    let services: Vec<ServiceId> = (0..app.spec.service_count())
        .map(|i| ServiceId(i as u32))
        .collect();
    let added = provision(
        &mut sim,
        |sim, from, to| load.drive_fn(sim, from, to, |_| 800.0),
        &services,
        0.7,
        SimDuration::from_secs(3),
        8,
    );
    println!("provisioning rounds (instances added): {added:?}");
    for &svc in &services {
        let n = sim.instance_count(svc);
        if n > 1 {
            println!("  {:>20}: {} instances", app.name_of(svc), n);
        }
    }

    // Steady-state run under tracing.
    let t0 = sim.now();
    load.drive(&mut sim, t0, t0 + SimDuration::from_secs(15), 500.0);
    sim.run_until_idle();

    // Per-service latency breakdown (the paper's §7 analysis).
    println!("\nper-service span latency (top 10 by p99):");
    let mut rows: Vec<(String, u64, f64)> = services
        .iter()
        .filter_map(|&svc| {
            let s = sim.collector().service(svc.0)?;
            Some((
                app.name_of(svc).to_string(),
                s.latency.quantile(0.99),
                s.net_fraction(),
            ))
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, p99, netf) in rows.iter().take(10) {
        println!(
            "  {name:>22}: p99 {:>9.3}ms  net share {:>5.1}%",
            *p99 as f64 / 1e6,
            netf * 100.0
        );
    }

    // Critical-path attribution over the sampled traces.
    let mut totals: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
    for (_, spans) in sim.collector().sampled_traces() {
        for a in critical_path(spans) {
            let e = totals.entry(a.service).or_insert((0, 0));
            e.0 += a.ns;
            e.1 += 1;
        }
    }
    let mut attr: Vec<(&str, u64)> = totals
        .iter()
        .map(|(&svc, &(ns, _))| (app.name_of(ServiceId(svc)), ns))
        .collect();
    attr.sort_by_key(|a| std::cmp::Reverse(a.1));
    let total: u64 = attr.iter().map(|a| a.1).sum();
    println!("\ncritical-path attribution (share of end-to-end latency):");
    for (name, ns) in attr.iter().take(10) {
        println!("  {name:>22}: {:>5.1}%", *ns as f64 / total as f64 * 100.0);
    }
}
