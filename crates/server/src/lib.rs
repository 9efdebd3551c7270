//! # seco-server — the Search Computing engine as a long-running service
//!
//! Everything below this crate executes one query and exits; this
//! crate turns the stack into a daemon where *state outlives requests*:
//!
//! * one [`seco_services::ServiceRegistry`] — call recorders, adaptive
//!   statistics accumulators, and the epoch counter are shared by every
//!   session;
//! * one [`seco_optimizer::PlanCache`] — a query planned for one
//!   session is a cache hit for the next (until a statistics promotion
//!   rolls the epoch and invalidates it);
//! * one [`seco_engine::SharedState`] — per-service fetch stacks
//!   (sharded response caches, circuit breakers) and the executor
//!   pool stay warm across requests;
//! * per-query [`session::Session`]s — kept cursors that the
//!   liquid-query continuations (`more`, `rerank`, `expand`) operate
//!   on.
//!
//! The wire protocol is a hand-rolled HTTP/1.1 subset ([`http`]) —
//! this build environment vendors no networking stack — with streamed
//! chunked responses for incremental result delivery ([`server`]).
//! [`state`] holds the shared assets plus admission control (execution
//! concurrency cap, session cap, per-tenant call budgets) and the
//! drain-then-stop shutdown path.

pub mod http;
pub mod server;
pub mod session;
pub mod state;

pub use server::{Server, ServerHandle};
pub use session::{render_rows, Session};
pub use state::{Refusal, ServerConfig, ServerState};
