//! # parmac
//!
//! Facade crate for the ParMAC reproduction (Carreira-Perpiñán & Alizadeh,
//! *"ParMAC: distributed optimisation of nested functions, with application to
//! learning binary autoencoders"*).
//!
//! ParMAC distributes the Method of Auxiliary Coordinates (MAC) over a ring of
//! machines: data and auxiliary coordinates stay put, only submodel parameters
//! circulate, and each submodel is implicitly trained by SGD as it visits every
//! machine. The flagship instantiation learns binary autoencoders (BAs) that
//! produce binary hash codes for fast approximate image retrieval.
//!
//! This crate simply re-exports the workspace members under short names:
//!
//! * [`linalg`] — dense matrices, Cholesky, PCA.
//! * [`data`] — synthetic feature datasets, partitioning, minibatches.
//! * [`optim`] — SGD, linear SVM, ridge/logistic regression, RBF features.
//! * [`cluster`] — ring-topology cluster backends: simulator, work-stealing
//!   pool, sharded server (training plus Hamming k-NN serving) and
//!   multi-process.
//! * [`hash`] — binary codes, hash encoders/decoders, tPCA and ITQ baselines.
//! * [`retrieval`] — ground truth, Hamming search, precision/recall metrics.
//! * [`core`] — MAC, ParMAC, the K-layer nested-model MAC and the theoretical
//!   speedup model.
//!
//! # Quick start
//!
//! ```
//! use parmac::core::{BaConfig, MacTrainer};
//! use parmac::data::synthetic::{gaussian_mixture, MixtureConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig::new(400, 16, 5).with_seed(7));
//! let cfg = BaConfig::new(8).with_mu_schedule(0.01, 1.5, 6).with_seed(1);
//! let mut trainer = MacTrainer::new(cfg, &data.features);
//! let report = trainer.run(&data.features);
//! assert!(report.final_ba_error <= report.initial_ba_error);
//! ```

pub use parmac_cluster as cluster;
pub use parmac_core as core;
pub use parmac_data as data;
pub use parmac_hash as hash;
pub use parmac_linalg as linalg;
pub use parmac_optim as optim;
pub use parmac_retrieval as retrieval;
