//! Offline stand-in for `serde` (see ../README.md).
//!
//! The published crate is format-agnostic; this workspace only ever speaks
//! JSON and only ever derives its impls, so the stand-in's two traits write
//! to and read from JSON text directly ([`json::Writer`], [`json::Parser`])
//! with the data layout `serde_json` gives derived types: structs as
//! objects, externally tagged enums unless `#[serde(tag = "..")]`, `Option`
//! as `null`, non-finite floats as `null`, map keys as strings.

#![forbid(unsafe_code)]

pub mod json;

mod impls;

pub use serde_derive::{Deserialize, Serialize};

/// A value that can be written as JSON.
pub trait Serialize {
    fn serialize(&self, out: &mut json::Writer);
}

/// A value that can be read from JSON.
pub trait Deserialize: Sized {
    fn deserialize(p: &mut json::Parser<'_>) -> Result<Self, json::Error>;

    /// The value a struct field of this type takes when its key is absent:
    /// `None` for `Option`, nothing (an error) for every other type.
    fn if_missing() -> Option<Self> {
        None
    }
}

pub mod de {
    /// Every `Deserialize` of the stand-in owns its data.
    pub use crate::Deserialize as DeserializeOwned;
}
