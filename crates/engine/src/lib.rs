//! # diablo-engine — deterministic discrete-event simulation core
//!
//! The execution substrate for DIABLO (*Datacenter-In-A-Box at LOw cost*), a
//! warehouse-scale computer network simulator. The original system (ASPLOS
//! 2015) accelerates abstract performance models on FPGAs; this crate
//! provides the equivalent software execution engine with the properties the
//! paper's methodology depends on:
//!
//! * **Determinism** — events are dispatched in a schedule-independent total
//!   order; identical configurations replay bit-identically, enabling the
//!   paper's "repeatable deterministic experiments".
//! * **Scalable parallelism** — components are grouped into partitions (the
//!   analogue of DIABLO's Rack/Switch FPGAs) synchronized every quantum of
//!   simulated time; serial and parallel runs agree exactly.
//! * **Picosecond timing** — all model timing is exact integer math; a
//!   64-byte packet at 10 Gbps is exactly 51.2 ns.
//! * **Instrumentation** — performance counters and HDR-style histograms for
//!   latency-tail analysis across five orders of magnitude.
//!
//! ## Quick example
//!
//! ```
//! use diablo_engine::prelude::*;
//!
//! struct Ticker { ticks: u32 }
//! impl Component<()> for Ticker {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         ctx.set_timer(SimDuration::from_micros(1), 0);
//!     }
//!     fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, ()>) {
//!         self.ticks += 1;
//!         if self.ticks < 10 {
//!             ctx.set_timer(SimDuration::from_micros(1), 0);
//!         }
//!     }
//!     fn on_message(&mut self, _p: PortNo, _m: (), _c: &mut Ctx<'_, ()>) {}
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulation::<()>::new();
//! let id = sim.add_component(Box::new(Ticker { ticks: 0 }));
//! let stats = sim.run()?;
//! assert_eq!(stats.final_time, SimTime::from_micros(10));
//! assert_eq!(sim.component::<Ticker>(id).unwrap().ticks, 10);
//! # Ok::<(), diablo_engine::error::EngineError>(())
//! ```

#![warn(missing_docs)]

pub mod component;
pub mod error;
pub mod event;
pub mod metrics;
pub mod parallel;
pub mod rng;
pub mod sched;
pub mod sim;
pub mod snap;
pub mod stats;
pub mod time;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::component::{Component, Ctx};
    pub use crate::error::EngineError;
    pub use crate::event::{ComponentId, EventKind, PortNo, TimerKey};
    pub use crate::metrics::{
        FlightEvent, FlightRecord, FlightRecorder, FlightRing, Instrumented, MetricValue,
        MetricsRegistry, MetricsVisitor, PrefixedVisitor, SeriesRecorder,
    };
    pub use crate::parallel::{ComponentHost, ParallelSimulation};
    pub use crate::rng::DetRng;
    pub use crate::sched::{EventQueue, HeapQueue, SlabQueue};
    pub use crate::sim::{RunStats, Simulation};
    pub use crate::snap::{Persist, Snap, SnapError, SnapReader, SnapWriter};
    pub use crate::stats::{Counter, ExecReport, Histogram, PartitionExec, Series, WorkerExec};
    pub use crate::time::{Bandwidth, Frequency, SimDuration, SimTime};
}
