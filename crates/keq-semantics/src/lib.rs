//! # keq-semantics — the language-parametric framework
//!
//! The analogue of the K framework's role in the paper: a common shape for
//! symbolic program states ([`SymConfig`]), a language interface
//! ([`Language`]), the common memory model of §4.4 ([`mem`]), the
//! acceptability policy of §2/§4.6 ([`accept`]), and concrete execution of
//! any `Language` ([`exec`]), so that each language has one definition. The equivalence checker in
//! `keq-core` depends only on this crate's abstractions, never on a concrete
//! language — that is the paper's headline property, language-parametricity.

pub mod accept;
pub mod config;
pub mod exec;
pub mod loc;
pub mod mem;

pub use accept::ErrorRelation;
pub use config::{ErrorKind, Language, SemanticsError, Status, SymConfig};
pub use exec::{default_ext_call, Outcome};
pub use loc::{CtrlLoc, LocPattern};
pub use mem::{
    footprint, memory_equal_obligations, memory_equal_obligations_masked, read_bytes, write_bytes,
    Footprint, MemLayout, MemRegion,
};
