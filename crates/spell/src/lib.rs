//! # regwin-spell
//!
//! The evaluation workload of *"Multiple Threads in Cyclic Register
//! Windows"* (Hidaka, Koike, Tanaka — ISCA 1993): a **multi-threaded
//! spell checker for LaTeX source files**, reimplemented on the
//! `regwin-rt` runtime.
//!
//! The program structure follows the paper's Figure 10 exactly — seven
//! threads connected by six cyclic FIFO streams:
//!
//! ```text
//!   T6 (dict1) ──S5──▶ T2 ◀──S2── T1 (delatex) ◀──S1── T4 (input)
//!   T7 (dict2) ──S6──▶ T3 ◀──S3── T2
//!   T2, T3 ──S4──▶ T5 (output)
//! ```
//!
//! * **T1** strips LaTeX commands and emits one word per line;
//! * **T2** (spell1) flags *incorrect derivatives* from a stop list and
//!   passes everything else on;
//! * **T3** (spell2) filters out correct words (with derivative/affix
//!   handling) and forwards misspellings;
//! * **T4–T7** simulate OS kernel file threads copying between internal
//!   buffers ("disk cache") and the streams.
//!
//! Buffer sizes are the evaluation knobs (§5.1): S1 and S4–S6 hold
//! **M** bytes, S2 and S3 hold **N** bytes. The absolute sizes set the
//! granularity; the M:N ratio sets the concurrency.
//!
//! The paper checked a 40 500-byte draft of itself against the SunOS
//! dictionaries; neither survives here, so [`corpus`] generates a
//! deterministic LaTeX-ish document and dictionary pair with the same
//! statistics (document length, word mix, dictionary size), and
//! [`mod@reference`] provides a sequential implementation whose output the
//! simulated pipeline must reproduce byte-for-byte (as a multiset of
//! reported words).
//!
//! ```rust
//! use regwin_spell::{SpellConfig, SpellPipeline};
//! use regwin_traps::SchemeKind;
//!
//! # fn main() -> Result<(), regwin_rt::RtError> {
//! let config = SpellConfig::small(); // a scaled-down corpus for tests
//! let outcome = SpellPipeline::new(config).run(8, SchemeKind::Sp)?;
//! assert!(outcome.report.stats.context_switches > 0);
//! assert!(!outcome.misspellings().is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod affix;
pub mod corpus;
pub mod delatex;
pub mod dict;
mod pipeline;
pub mod reference;
mod threads;
mod words;

pub use corpus::{Corpus, CorpusSpec};
pub use pipeline::{SpellConfig, SpellOutcome, SpellPipeline};
