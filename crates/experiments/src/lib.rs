//! # pi2-experiments — the paper's evaluation, as runnable scenarios
//!
//! One module per experiment family, each building dumbbell scenarios from
//! the building blocks in [`scenario`] and returning plain data structures
//! that the bench binaries in `pi2-bench` print as tables. The mapping to
//! the paper's figures is catalogued in `DESIGN.md`:
//!
//! * [`fig06`] — PI (fixed gains) vs PI2 under varying traffic intensity
//!   at 100 Mb/s (Figure 6); the same runner at 10 Mb/s is Figure 13;
//! * [`fig11`] — queue delay and throughput under light/heavy/mixed loads
//!   (Figure 11);
//! * [`fig12`] — varying link capacity (Figure 12);
//! * [`fig14`] — queue-delay CDFs at 5 ms and 20 ms targets (Figure 14);
//! * [`grid`] — the link×RTT coexistence grid behind Figures 15–18;
//! * [`fig19`] — flow-count combinations (Figures 19 and 20);
//! * [`appendix_a`] — steady-state window-law validation (Appendix A);
//! * [`ablation`] — k-sweep, gain-sweep, bare-PIE and encoder ablations.
//!
//! Sweeps execute through [`runner`] — a deterministic parallel executor
//! (`PI2_THREADS` env knob, default = available parallelism) whose output
//! is bit-identical to a serial run regardless of thread count.

pub mod ablation;
pub mod appendix_a;
pub mod backend;
pub mod dualq;
pub mod dynamics;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig19;
pub mod grid;
pub mod isolation;
pub mod overload;
pub mod rttfair;
pub mod runner;
pub mod scenario;
pub mod shortflows;
pub mod topology;
pub mod workload;

pub use backend::{
    cc_fluid_kind, fluid_encoding, run_fluid, summarize_flows, summarize_run,
    summarize_scenario_run, Backend, BackendSummary, BackgroundRun, BgGroup, FluidBackground,
    FluidEncoding, FluidRunResult,
};
pub use runner::par_map;
pub use scenario::{AqmKind, FlowGroup, RunResult, Scenario, UdpGroup};
pub use topology::{topology, TopologyKind, TopologyRun};
pub use workload::{mice_arrivals, MiceWorkload, Mouse};
