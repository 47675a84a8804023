//! # dsb-experiments — regenerating the paper's evaluation
//!
//! One module (and one binary) per table/figure of the DeathStarBench
//! paper. Each module exposes `run(scale) -> String`; the string is the
//! formatted table/series the paper's figure plots. The `all` binary runs
//! everything in order.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table01` | Table 1 — suite composition |
//! | `fig03` | Fig. 3 — network vs application processing |
//! | `fig09` | Fig. 9 — Swarm edge vs cloud |
//! | `fig10` | Fig. 10 — cycle breakdown + IPC |
//! | `fig11` | Fig. 11 — L1-i MPKI |
//! | `fig12` | Fig. 12 — tail latency vs load × frequency |
//! | `fig13` | Fig. 13 — Xeon vs ThunderX |
//! | `fig14` | Fig. 14 — OS/user/libs breakdown |
//! | `fig15` | Fig. 15 — network processing share, low/high load |
//! | `fig16` | Fig. 16 — FPGA RPC acceleration |
//! | `fig17` | Fig. 17 — two-tier backpressure |
//! | `fig18` | Fig. 18 — dependency graphs |
//! | `fig19` | Fig. 19 — cascading QoS violations |
//! | `fig20` | Fig. 20 — recovery vs monolith |
//! | `fig21` | Fig. 21 — EC2 vs Lambda |
//! | `fig22` | Fig. 22 — tail at scale |
//!
//! The `extras` binary adds §7's in-text results (RPC vs REST,
//! critical-path shift) and simulator ablations. The `dsb-report` binary
//! (module [`observe`]) renders a telemetry report — JSONL or a
//! `dsb-top`-style table with SLO alerts and root-cause lines — for any
//! built-in app.
//!
//! Pass `--quick` (or set `DSB_SCALE=quick`) for the scaled-down variant
//! the unit tests run.

#![warn(missing_docs)]

pub mod chaos;
pub mod extras;
pub mod fig03;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod harness;
pub mod observe;
pub mod report;
pub mod table01;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down: used by the unit tests and CI smoke runs.
    Quick,
    /// Full: the EXPERIMENTS.md numbers.
    Full,
}

impl Scale {
    /// Reads the scale from argv (`--quick`) or `DSB_SCALE=quick`.
    pub fn from_env() -> Scale {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("DSB_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("quick"));
        if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Scales a duration-in-seconds parameter. Quick is sized so the
    /// whole tier-1 test pass (which replays two figures end to end)
    /// fits the 120-second CI budget on a single core.
    pub fn secs(self, full: u64) -> u64 {
        match self {
            Scale::Quick => (full / 8).max(2),
            Scale::Full => full,
        }
    }

    /// Scales a sweep-point count.
    pub fn points(self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 2).max(2),
            Scale::Full => full,
        }
    }
}
