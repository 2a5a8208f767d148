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

// No panics or prints in data-plane code; exceptions are `#[expect]`s (DESIGN §5.3).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod api;
pub mod id;
pub mod patterns;
pub mod table;

pub use api::{DataStore, StoreError};
pub use id::{AccessToken, DataEntry, DataId, FunctionId, Location, WorkflowId};
pub use table::MappingTables;
