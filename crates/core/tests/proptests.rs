//! Property-based tests for the microservice framework: slab safety,
//! request conservation over randomized applications, and determinism —
//! on the in-repo `dsb-testkit` engine.

use std::collections::BTreeMap;

use dsb_core::{
    AppBuilder, ClusterSpec, EndpointRef, LbPolicy, RequestType, Simulation, Slab, Step,
};
use dsb_simcore::{Dist, Rng, SimTime};
use dsb_testkit::{gen, prop, prop_assert, prop_assert_eq, Shrink};
use dsb_uarch::ExecDomain;

// ---------------------------------------------------------------------------
// Slab: model-based testing against a BTreeMap
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum SlabOp {
    Insert(u32),
    Remove(usize),
    Get(usize),
}

impl Shrink for SlabOp {
    fn shrink(&self) -> Vec<Self> {
        match *self {
            SlabOp::Insert(v) => v.shrink().into_iter().map(SlabOp::Insert).collect(),
            SlabOp::Remove(i) => i.shrink().into_iter().map(SlabOp::Remove).collect(),
            SlabOp::Get(i) => i.shrink().into_iter().map(SlabOp::Get).collect(),
        }
    }
}

fn arb_ops(rng: &mut Rng) -> Vec<SlabOp> {
    gen::vec_with(rng, 0, 200, |r| match r.index(3) {
        0 => SlabOp::Insert(gen::u32_in(r, 0, 1000)),
        1 => SlabOp::Remove(gen::usize_in(r, 0, 64)),
        _ => SlabOp::Get(gen::usize_in(r, 0, 64)),
    })
}

/// The slab behaves exactly like a `BTreeMap` under any operation
/// sequence, including stale-key misses after removal.
#[test]
fn slab_matches_model() {
    prop!(cases = 64, arb_ops, |ops: &Vec<SlabOp>| {
        let mut slab = Slab::new();
        let mut model: BTreeMap<usize, u32> = BTreeMap::new();
        let mut keys = Vec::new();
        let mut next = 0usize;
        for op in ops {
            match *op {
                SlabOp::Insert(v) => {
                    let k = slab.insert(v);
                    keys.push((next, k));
                    model.insert(next, v);
                    next += 1;
                }
                SlabOp::Remove(i) if !keys.is_empty() => {
                    let (id, k) = keys[i % keys.len()];
                    let expected = model.remove(&id);
                    prop_assert_eq!(slab.remove(k), expected);
                }
                SlabOp::Get(i) if !keys.is_empty() => {
                    let (id, k) = keys[i % keys.len()];
                    prop_assert_eq!(slab.get(k).copied(), model.get(&id).copied());
                }
                _ => {}
            }
            prop_assert_eq!(slab.len(), model.len());
        }
        let live: Vec<u32> = slab.iter().map(|(_, &v)| v).collect();
        prop_assert_eq!(live.len(), model.len());
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Random applications: conservation + determinism
// ---------------------------------------------------------------------------

/// A compact, generatable description of a layered application.
#[derive(Debug, Clone, PartialEq)]
struct RandomApp {
    /// Per service: (workers, event_driven, work_us, io_us).
    layers: Vec<(u32, bool, u16, u16)>,
    /// Call pattern per non-leaf layer: 0 = single call, 1 = two
    /// sequential calls, 2 = parallel fan of 2, 3 = branch 50/50.
    call_kind: Vec<u8>,
}

type Layer = (u32, bool, u16, u16);

/// Shrinks one layer within the generator's domain (workers ≥ 1,
/// work_us ≥ 1).
fn shrink_layer((w, e, c, io): Layer) -> Vec<Layer> {
    let mut out = Vec::new();
    if w > 1 {
        out.push((1, e, c, io));
        out.push((w / 2, e, c, io));
    }
    if e {
        out.push((w, false, c, io));
    }
    if c > 1 {
        out.push((w, e, 1, io));
        out.push((w, e, c / 2, io));
    }
    if io > 0 {
        out.push((w, e, c, 0));
        out.push((w, e, c, io / 2));
    }
    out
}

impl Shrink for RandomApp {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.layers.len();
        // Fewer layers first (keeping `layers` and `call_kind` aligned),
        // then simpler layers, then simpler call patterns.
        if n > 1 {
            out.push(RandomApp {
                layers: self.layers[..n / 2].to_vec(),
                call_kind: self.call_kind[..n / 2].to_vec(),
            });
            out.push(RandomApp {
                layers: self.layers[..n - 1].to_vec(),
                call_kind: self.call_kind[..n - 1].to_vec(),
            });
        }
        for i in 0..n {
            for cand in shrink_layer(self.layers[i]) {
                let mut app = self.clone();
                app.layers[i] = cand;
                out.push(app);
            }
        }
        for i in 0..self.call_kind.len() {
            for cand in self.call_kind[i].shrink() {
                let mut app = self.clone();
                app.call_kind[i] = cand;
                out.push(app);
            }
        }
        out
    }
}

fn arb_app(rng: &mut Rng) -> RandomApp {
    let n = gen::usize_in(rng, 1, 5);
    let layers = (0..n)
        .map(|_| {
            (
                gen::u32_in(rng, 1, 8),
                gen::bool_(rng),
                gen::u16_in(rng, 1, 300),
                gen::u16_in(rng, 0, 200),
            )
        })
        .collect();
    let call_kind = (0..n).map(|_| gen::u8_in(rng, 0, 4)).collect();
    RandomApp { layers, call_kind }
}

fn build(r: &RandomApp) -> (dsb_core::AppSpec, EndpointRef) {
    let mut app = AppBuilder::new("random");
    let mut downstream: Option<EndpointRef> = None;
    for (i, &(workers, event_driven, work_us, io_us)) in r.layers.iter().enumerate().rev() {
        let mut b = app
            .service(&format!("svc{i}"))
            .workers(workers)
            .lb(if i % 2 == 0 {
                LbPolicy::RoundRobin
            } else {
                LbPolicy::LeastOutstanding
            })
            .instances(1 + (i as u32 % 2));
        if event_driven {
            b = b.event_driven();
        }
        let svc = b.build();
        let mut steps = vec![Step::Compute {
            ns: Dist::constant(work_us as f64 * 1000.0),
            domain: ExecDomain::User,
        }];
        if io_us > 0 {
            steps.push(Step::Io {
                ns: Dist::constant(io_us as f64 * 1000.0),
            });
        }
        if let Some(d) = downstream {
            match r.call_kind[i] % 4 {
                0 => steps.push(Step::call(d, 128.0)),
                1 => {
                    steps.push(Step::call(d, 128.0));
                    steps.push(Step::call(d, 64.0));
                }
                2 => steps.push(Step::FanCall {
                    target: d,
                    req_bytes: Dist::constant(64.0),
                    n: Dist::constant(2.0),
                }),
                _ => steps.push(Step::Branch {
                    p: 0.5,
                    then: std::sync::Arc::new(vec![Step::call(d, 128.0)]),
                    els: std::sync::Arc::new(vec![]),
                }),
            }
        }
        let ep = app.endpoint(svc, "op", Dist::constant(256.0), steps);
        downstream = Some(ep);
    }
    (app.build(), downstream.expect("at least one layer"))
}

/// `true` when a shrink candidate left the generator's domain.
fn out_of_domain(r: &RandomApp) -> bool {
    r.layers.is_empty()
        || r.layers.len() != r.call_kind.len()
        || r.layers.iter().any(|&(w, _, c, _)| w == 0 || c == 0)
}

fn simulate(r: &RandomApp, n_requests: u64, seed: u64) -> (u64, u64, u64) {
    let (spec, entry) = build(r);
    let mut cluster = ClusterSpec::xeon_cluster(3, 1);
    cluster.trace_sample_prob = 0.0;
    let mut sim = Simulation::new(spec, cluster, seed);
    for i in 0..n_requests {
        sim.inject(SimTime::from_micros(i * 997), entry, RequestType(0), 128, i);
    }
    sim.run_until_idle();
    let st = sim.request_stats(RequestType(0)).expect("stats exist");
    (st.issued, st.completed, sim.events_processed())
}

/// No request is ever lost, regardless of topology, concurrency model,
/// worker counts, or call pattern — and the run is deterministic.
#[test]
fn requests_conserved_and_deterministic() {
    prop!(
        cases = 64,
        |rng| (arb_app(rng), gen::u64_in(rng, 0, 1000)),
        |&(ref r, seed): &(RandomApp, u64)| {
            if out_of_domain(r) {
                return Ok(());
            }
            let (issued, completed, events) = simulate(r, 60, seed);
            prop_assert_eq!(issued, 60);
            prop_assert_eq!(completed, 60, "lost requests in {:?}", r);
            let again = simulate(r, 60, seed);
            prop_assert_eq!(
                again,
                (issued, completed, events),
                "nondeterminism in {:?}",
                r
            );
            Ok(())
        }
    );
}

/// Latency is bounded below by the sum of per-layer compute+io along a
/// single chain (each request must at least do the work).
#[test]
fn latency_at_least_service_demand() {
    prop!(cases = 64, arb_app, |r: &RandomApp| {
        if out_of_domain(r) {
            return Ok(());
        }
        let (spec, entry) = build(r);
        let mut cluster = ClusterSpec::xeon_cluster(3, 1);
        cluster.trace_sample_prob = 0.0;
        let mut sim = Simulation::new(spec, cluster, 1);
        sim.inject(SimTime::ZERO, entry, RequestType(0), 128, 1);
        sim.run_until_idle();
        let st = sim.request_stats(RequestType(0)).unwrap();
        prop_assert_eq!(st.completed, 1);
        // The entry layer's own work is a hard floor.
        let (_, _, work_us, io_us) = r.layers[0];
        let floor = (work_us as u64 + io_us as u64) * 1000;
        prop_assert!(
            st.latency.max() >= floor,
            "latency {} below demand floor {floor}",
            st.latency.max()
        );
        Ok(())
    });
}
