//! # seco-engine — execution of fully instantiated query plans
//!
//! "The execution environment […] is a system capable of executing query
//! plans: the system can execute requests, collect their results, and
//! integrate them progressively, forming the answers as combinations of
//! partial invocation results" (§3).
//!
//! Two executors are provided:
//!
//! * [`executor::execute_plan`] — deterministic, single-threaded
//!   dataflow execution with virtual-time accounting; every experiment
//!   uses it because runs are bit-for-bit reproducible;
//! * [`parallel::execute_parallel`] — a pipelined executor that runs
//!   every service node in its own thread connected by bounded
//!   crossbeam channels, demonstrating the "data shipped in pipelines
//!   from one service to another, so as to maximize parallelism" (§2.2)
//!   design on real OS threads.
//!
//! [`output`] assembles results under the global ranking function:
//! emission order is preserved (the non-blocking dataflow of §4.1) and
//! `top_k` reorders on demand, which is exactly the chapter's
//! distinction between "the top-k tuples" and "k good tuples, emitted
//! with an approximation of the total order".

pub mod clock;
pub mod config;
pub mod error;
pub mod executor;
mod ops;
pub mod output;
pub mod parallel;
pub mod shared;
pub mod trace;

pub use clock::{drive_pair, Clock, ClockPacing};
pub use config::EngineConfig;
pub use error::EngineError;
pub use executor::{execute_plan, execute_plan_shared, ExecutionResult, FailureMode, FetchOptions};
pub use output::ResultSet;
pub use parallel::{
    execute_parallel, execute_parallel_session, execute_parallel_with, BatchSink, ParallelOutcome,
};
pub use seco_join::JoinStats;
pub use shared::SharedState;
pub use trace::{ExecutionTrace, TraceEvent};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
