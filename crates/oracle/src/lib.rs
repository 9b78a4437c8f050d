//! Id-keyed reference implementations for the hybridcast workspace.
//!
//! Every figure runs the allocation-free dense code of `hybridcast-core`
//! and `hybridcast-sim`. This crate keeps the readable `BTreeMap` /
//! `BTreeSet` versions of that code, which the differential tests check
//! the dense code against bit for bit per seed. Only `[dev-dependencies]`
//! name it, so none of it ships.
//!
//! | dense (shipping) | oracle (this crate) |
//! |---|---|
//! | `core::engine::disseminate_dense` | [`engine::disseminate`] |
//! | `core::async_engine::disseminate_async_dense` | [`async_engine::disseminate_async`] over a frozen overlay, or a live [`network::Network`] |
//! | `core::pull::disseminate_push_pull_dense` | [`pull::disseminate_push_pull`] |
//! | `core::experiment::run_seeded_disseminations` | [`experiment::run_disseminations`] |
//! | `core::overlay::DenseOverlay::from_graphs` | [`overlay::StaticOverlay`] |
//! | `core::sched::CalendarQueue` | [`sched::HeapQueue`] |
//! | `sim::DenseSimNetwork` | [`network::Network`] |
//!
//! Each engine has one entry point, and it takes a probe: pass
//! [`hybridcast_obs::NullProbe`] to run it unobserved.

#![warn(missing_docs)]

pub mod async_engine;
#[cfg(test)]
mod dense;
pub mod engine;
pub mod experiment;
pub mod network;
pub mod overlay;
pub mod pull;
pub mod sched;

pub use async_engine::{disseminate_async, Substrate};
pub use engine::disseminate;
pub use experiment::{random_origins, run_disseminations};
pub use network::{Network, SimNode};
pub use overlay::StaticOverlay;
pub use pull::disseminate_push_pull;
pub use sched::HeapQueue;
