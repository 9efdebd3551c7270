//! # seco-engine — execution of fully instantiated query plans
//!
//! "The execution environment […] is a system capable of executing query
//! plans: the system can execute requests, collect their results, and
//! integrate them progressively, forming the answers as combinations of
//! partial invocation results" (§3).
//!
//! One executor runs every plan: [`executor::execute_plan`] (and its
//! daemon entry point [`executor::execute_plan_shared`]) walks the plan
//! in topological order over the node operators of `ops`, with
//! virtual-time accounting, so runs are bit-for-bit reproducible. The
//! chapter's pipelining — "data shipped in pipelines from one service
//! to another, so as to maximize parallelism" (§2.2) — is reproduced
//! in that accounting: each node's busy time is charged on the virtual
//! clock and the plan's elapsed time is its critical path over the
//! DAG, exactly as the execution-time cost metric computes it. Join
//! kernels run morsels on the shared [`seco_exec::ExecPool`] when
//! `exec_workers > 1`, byte-identically to the serial path.
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
pub mod shared;
pub mod trace;

pub use clock::{drive_pair, Clock, ClockPacing};
pub use config::EngineConfig;
pub use error::EngineError;
pub use executor::{execute_plan, execute_plan_shared, ExecutionResult, FailureMode, FetchOptions};
pub use output::ResultSet;
pub use seco_join::JoinStats;
pub use shared::SharedState;
pub use trace::{ExecutionTrace, TraceEvent};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
