//! # grouter-store
//!
//! The *unified data-passing framework* of paper §4.2: globally unique data
//! identifiers, `Put`/`Get` metadata bookkeeping, hierarchical (local +
//! global) mapping tables, and the function/workflow access control of §7.
//!
//! This crate manages **metadata only** — which bytes live where and who may
//! touch them. Byte movement is planned by `grouter-transfer` and driven by
//! the runtime; the concrete *policy* (where a `Put` lands, which path a
//! `Get` takes) is what distinguishes GROUTER (`grouter` crate) from the
//! baselines (`grouter-baselines`).

pub mod api;
pub mod id;
pub mod patterns;
pub mod table;

pub use api::{DataStore, StoreError};
pub use id::{AccessToken, DataEntry, DataId, FunctionId, Location, WorkflowId};
pub use table::MappingTables;
