//! # ReCache
//!
//! Reactive caching for fast analytics over heterogeneous raw data — a
//! from-scratch Rust reproduction of Azim, Karpathiotakis and Ailamaki,
//! *"ReCache: Reactive Caching for Fast Analytics over Heterogeneous
//! Data"*, PVLDB 11(3), 2017.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`ReCache`] — the session type: register CSV / JSON sources, run
//!   SQL, and let the reactive cache accelerate repeats.
//! * [`types`] — schemas, values, nested paths, flattening.
//! * [`data`] — raw-data access (positional maps) and dataset generators.
//! * [`layout`] — cache layouts (columnar, Dremel nested columnar, lazy
//!   offsets).
//! * [`engine`] — query plans and the (vectorized, parallel) executor.
//! * [`cache`] — admission, eviction and layout-selection policies.
//! * [`workload`] — the paper's evaluation workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use recache::{Admission, Eviction, QueryRequest, ReCache};
//! use recache::data::gen::tpch;
//! use recache::data::csv;
//!
//! // A session with a 64 MiB reactive cache.
//! let mut session = ReCache::builder()
//!     .cache_capacity_bytes(64 << 20)
//!     .eviction(Eviction::GreedyDual)
//!     .admission_threshold(0.10)
//!     .build();
//!
//! // Register a generated TPC-H lineitem table (in-memory CSV bytes).
//! let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0001, 42);
//! let schema = tpch::lineitem_schema();
//! session.register_csv_bytes("lineitem", csv::write_csv(&schema, &lineitems), schema);
//!
//! // First run scans the raw file and caches the selection result;
//! // repeats (and narrower ranges) are served from memory.
//! let q = "SELECT sum(l_extendedprice), count(*) FROM lineitem WHERE l_quantity >= 30";
//! let cold = session.execute(&QueryRequest::sql(q)).unwrap();
//! let warm = session.execute(&QueryRequest::sql(q)).unwrap();
//! assert_eq!(cold.rows, warm.rows);
//! assert!(warm.stats.cache_hit);
//! ```

pub use recache_cache as cache;
pub use recache_core::*;
pub use recache_data as data;
pub use recache_engine as engine;
pub use recache_layout as layout;
pub use recache_types as types;
pub use recache_workload as workload;
