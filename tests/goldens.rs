//! Golden-trace tests: each application's end-to-end summary at a fixed
//! seed is pinned to a checked-in fixture under `tests/goldens/`.
//!
//! Any change to the simulator's timing model — per-tier service demand,
//! scheduling, networking, RNG consumption order — moves the latency
//! percentiles or event counts and fails these tests with a line diff.
//! When a change is intentional, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --offline --test goldens
//! ```
//!
//! The structure goldens pin the call graphs the scripts imply: each
//! suite app's Graphviz export against its committed
//! `figures/fig18_<app>.dot` (Fig. 18), and the Table 1 composition
//! counts (edges, endpoints, script steps) against
//! `tests/goldens/table01.txt`.

mod common;

use deathstarbench_sim::apps::{self, monolith, twotier, BuiltApp};
use deathstarbench_sim::experiments::{table01, Scale};
use dsb_testkit::golden;

const SEED: u64 = 42;
const SECS: u64 = 4;

fn check(name: &str, app: &BuiltApp, qps: f64) {
    let sim = common::run_fixed(app, qps, SECS, SEED);
    let text = common::summary(app, &sim);
    let path = format!("{}/tests/goldens/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    golden::check(&path, &text);
}

#[test]
fn golden_social_network() {
    check("social_network", &apps::social::social_network(), 40.0);
}

#[test]
fn golden_media_service() {
    check("media_service", &apps::media::media_service(), 40.0);
}

#[test]
fn golden_ecommerce() {
    check("ecommerce", &apps::ecommerce::ecommerce(), 40.0);
}

#[test]
fn golden_banking() {
    check("banking", &apps::banking::banking(), 40.0);
}

#[test]
fn golden_swarm_edge() {
    check(
        "swarm_edge",
        &apps::swarm::swarm(apps::swarm::SwarmVariant::Edge),
        15.0,
    );
}

#[test]
fn golden_swarm_cloud() {
    check(
        "swarm_cloud",
        &apps::swarm::swarm(apps::swarm::SwarmVariant::Cloud),
        15.0,
    );
}

#[test]
fn golden_social_monolith() {
    check("social_monolith", &monolith::social_monolith(), 40.0);
}

#[test]
fn golden_twotier() {
    check("twotier", &twotier::twotier(64, 1024), 200.0);
}

#[test]
fn golden_fig18_dot_files() {
    for app in [
        apps::social::social_network(),
        apps::media::media_service(),
        apps::ecommerce::ecommerce(),
        apps::banking::banking(),
        apps::swarm::swarm(apps::swarm::SwarmVariant::Cloud),
        apps::swarm::swarm(apps::swarm::SwarmVariant::Edge),
    ] {
        let path = format!(
            "{}/figures/fig18_{}.dot",
            env!("CARGO_MANIFEST_DIR"),
            app.spec.name
        );
        golden::check(&path, &app.spec.to_dot());
    }
}

#[test]
fn golden_table01() {
    let path = format!("{}/tests/goldens/table01.txt", env!("CARGO_MANIFEST_DIR"));
    golden::check(&path, &table01::run(Scale::Quick));
}
