//! # datagen — deterministic synthetic datasets
//!
//! The paper evaluates on a fragment of the Microsoft Academic Search
//! database (~124K tuples) and a fragment of TPC-H (~376K tuples); neither
//! is available offline, so this crate generates seeded synthetic
//! equivalents that preserve the properties the experiments exercise:
//!
//! * [`mas`] — `Organization`, `Author`, `Writes`, `Publication`, `Cite`
//!   with Zipf-skewed joins (some organizations/authors/publications are
//!   much better connected than others, which is what makes the cascade and
//!   DC workloads interesting);
//! * [`tpch`] — the eight TPC-H tables with realistic key relationships,
//!   trimmed to the columns the Table 2 programs touch;
//! * [`errors`] — the duplicated `Author(aid, name, oid, organization)`
//!   table of the HoloClean comparison, plus seeded cell-error injection
//!   with ground truth;
//! * [`scale`] — the zipf scaling universe (`Hub`/`Link`/`Mid`/`Leaf` with
//!   Zipf-skewed foreign keys), built for join-bound benches at up to 50×
//!   the paper's sizes, where one wide rule dominates.
//!
//! Everything is reproducible from a `u64` seed.

pub mod errors;
pub mod mas;
pub mod scale;
pub mod tpch;
pub mod zipf;

pub use errors::{author_table, inject_errors, InjectedError};
pub use mas::{MasConfig, MasData};
pub use scale::{ScaleConfig, ScaleData};
pub use tpch::{TpchConfig, TpchData};
