//! Placement property behind the DSB015 lookahead certificate: an IPC
//! edge (same-host-only protocol) or a `CoLocate` rider must never be
//! forced across machines by the deterministic placement plan — for
//! every builtin on the reference cluster, and for 64 generated specs
//! on their own clusters. If this drifted, the certificate's
//! partition-alignment and same-host reasoning would be unsound.

mod common;

use deathstarbench_sim::apps;
use dsb_core::{AppSpec, ClusterSpec, PlacementHint, PlacementPlan, ServiceId, Step};
use dsb_gen::GenSpec;

/// Every machine hosting an instance of an IPC caller must also host an
/// instance of the callee (so a same-host route always exists), and
/// every `CoLocate(anchor)` instance `k` must share its machine with
/// anchor instance `k mod n` — the documented rider contract.
fn assert_local_routes(tag: &str, spec: &AppSpec, cluster: &ClusterSpec) {
    let plan = PlacementPlan::compute(spec, cluster);
    // CoLocate riders sit exactly on their anchor's machines.
    for (i, svc) in spec.services.iter().enumerate() {
        let PlacementHint::CoLocate(anchor) = svc.placement else {
            continue;
        };
        let rider = plan.machines_of(ServiceId(i as u32));
        let anchors = plan.machines_of(anchor);
        assert!(
            !anchors.is_empty(),
            "{tag}: `{}` co-locates with an unplaced anchor",
            svc.name
        );
        for (k, m) in rider.iter().enumerate() {
            let want = anchors[k % anchors.len()];
            assert_eq!(
                *m, want,
                "{tag}: `{}` instance {k} landed on machine {} instead of riding \
                 its anchor's machine {}",
                svc.name, m.0, want.0
            );
        }
    }
    // IPC callees cover every machine their callers run on.
    for (i, svc) in spec.services.iter().enumerate() {
        let mut targets = Vec::new();
        for ep in &svc.endpoints {
            Step::walk(&ep.script, 1.0, &mut |s, _| {
                targets.extend(s.calls().map(|(t, _, _)| t));
            });
        }
        targets.sort_unstable_by_key(|t| (t.service.0, t.endpoint));
        targets.dedup();
        for t in targets {
            let callee = spec.service(t.service);
            if !callee.protocol.same_host_only() {
                continue;
            }
            let caller_machines = plan.machines_of(ServiceId(i as u32));
            let callee_machines = plan.machines_of(t.service);
            for m in caller_machines {
                assert!(
                    callee_machines.contains(m),
                    "{tag}: IPC edge `{}` -> `{}` has a caller on machine {} with \
                     no local callee instance (callee machines {:?})",
                    svc.name,
                    callee.name,
                    m.0,
                    callee_machines.iter().map(|m| m.0).collect::<Vec<_>>(),
                );
            }
        }
    }
}

#[test]
fn builtin_ipc_and_colocate_edges_stay_on_machine() {
    let cluster = common::fixed_cluster();
    for (name, _qps, app) in apps::all_builtin() {
        assert_local_routes(name, &app.spec, &cluster);
    }
}

#[test]
fn generated_ipc_and_colocate_edges_stay_on_machine() {
    for seed in 0..64u64 {
        let g = GenSpec::sample(seed);
        let app = g.build();
        let cluster = g.cluster();
        assert_local_routes(&format!("seed {seed}"), &app.spec, &cluster);
    }
}
