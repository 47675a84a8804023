//! Table 1 — characteristics and composition of each end-to-end
//! application.
//!
//! The paper reports LoC and per-language breakdowns of its
//! implementation; the structural analog for this reproduction is the
//! graph composition: unique microservices (the paper's headline column),
//! dependency edges, endpoints, handler script steps, and the protocols in
//! use.

use std::collections::BTreeSet;

use dsb_apps::{banking, ecommerce, media, social, swarm, BuiltApp};
use dsb_core::Step;

use crate::report::Table;
use crate::Scale;

fn row(t: &mut Table, app: &BuiltApp, paper_services: u32) {
    let spec = &app.spec;
    let mut protocols = BTreeSet::new();
    let mut endpoints = 0usize;
    let mut steps = 0usize;
    for s in &spec.services {
        protocols.insert(s.protocol.name());
        endpoints += s.endpoints.len();
        for e in &s.endpoints {
            Step::walk(&e.script, 1.0, &mut |_, _| steps += 1);
        }
    }
    t.row_owned(vec![
        spec.name.clone(),
        spec.service_count().to_string(),
        paper_services.to_string(),
        spec.edges().len().to_string(),
        endpoints.to_string(),
        steps.to_string(),
        protocols.into_iter().collect::<Vec<_>>().join("+"),
        app.mix.entries().len().to_string(),
    ]);
}

/// Regenerates Table 1.
pub fn run(_scale: Scale) -> String {
    let mut t = Table::new(
        "Table 1: suite composition (unique microservices matches the paper)",
        &[
            "service",
            "microservices",
            "paper",
            "edges",
            "endpoints",
            "script steps",
            "protocols",
            "query types",
        ],
    );
    row(&mut t, &social::social_network(), 36);
    row(&mut t, &media::media_service(), 38);
    row(&mut t, &ecommerce::ecommerce(), 41);
    row(&mut t, &banking::banking(), 34);
    row(&mut t, &swarm::swarm(swarm::SwarmVariant::Cloud), 25);
    row(&mut t, &swarm::swarm(swarm::SwarmVariant::Edge), 21);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_counts_match_paper_column() {
        let out = run(Scale::Quick);
        for line in out.lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() >= 3 {
                assert_eq!(cells[1], cells[2], "ours vs paper in: {line}");
            }
        }
    }

    #[test]
    fn all_six_apps_listed() {
        let out = run(Scale::Quick);
        for name in [
            "social-network",
            "media-service",
            "e-commerce",
            "banking",
            "swarm-cloud",
            "swarm-edge",
        ] {
            assert!(out.contains(name), "missing {name}");
        }
    }
}
