//! The repository's update benchmark: the whole update path (diff →
//! convert → encode → lossy channel → streaming install → store) timed
//! end to end, and each layer timed from outside in a separate traced
//! run. `README.md` in this directory lists the workloads and metrics.

#![warn(missing_docs)]

pub mod alloc;
pub mod host;
pub mod inputs;
pub mod report;
pub mod run;
pub mod stats;
