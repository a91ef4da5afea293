//! MAC and ParMAC: the paper's primary contribution.
//!
//! The **method of auxiliary coordinates (MAC)** optimises a nested model by
//! introducing one auxiliary coordinate vector per data point, turning the
//! nested objective into a quadratic-penalty objective that is alternated
//! between a **W step** (train the now-independent submodels) and a **Z step**
//! (update the per-point coordinates). **ParMAC** is the distributed execution
//! model: data and coordinates stay on their machine, submodels circulate on a
//! ring and are trained by SGD as they visit each machine's shard.
//!
//! The crate is organised as:
//!
//! * [`ba`] — the binary autoencoder model (`E_BA`, `E_Q`).
//! * [`zstep`] — the binary proximal operator of the Z step (exact enumeration
//!   and alternating-over-bits with a relaxed initialisation).
//! * [`mu`] — the multiplicative penalty schedule `µ_i = µ_0 a^i`.
//! * [`config`] — configuration types shared by the trainers.
//! * [`mac`] — the serial MAC/BA trainer (fig. 1 of the paper).
//! * [`parmac`] — the distributed ParMAC trainer, generic over the
//!   [`ClusterBackend`] execution engine (simulator or threads), with epochs,
//!   shuffling, streaming and fault hooks.
//! * [`nested`] — the general K-layer MAC for deep (sigmoid) nets of §3.2.
//! * [`speedup`] — the theoretical parallel-speedup model of §5 (eqs. 7–22).
//! * [`curve`] — learning-curve records (`E_Q`, `E_BA`, precision vs
//!   iteration/time) used by the experiment harness.
//!
//! # Quick start
//!
//! ```
//! use parmac_core::{BaConfig, MacTrainer};
//! use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig::new(300, 16, 4).with_seed(7));
//! let x = data.train_features();
//! let cfg = BaConfig::new(8).with_mu_schedule(0.02, 2.0, 5).with_seed(1);
//! let mut trainer = MacTrainer::new(cfg, &x);
//! let report = trainer.run(&x);
//! assert!(report.final_ba_error <= report.initial_ba_error);
//! ```

#![warn(missing_docs)]

pub mod ba;
pub mod config;
pub mod curve;
pub mod mac;
pub mod mu;
pub mod nested;
pub mod parmac;
pub mod speedup;
pub mod zstep;

pub use ba::BinaryAutoencoder;
pub use config::{BaConfig, ParMacConfig, ZStepMethod};
pub use curve::{IterationRecord, LearningCurve};
pub use mac::{MacReport, MacTrainer};
pub use mu::MuSchedule;
pub use nested::{NestedMac, NestedMacConfig};
pub use parmac::{ParMacReport, ParMacTrainer};
pub use parmac_cluster::{ClusterBackend, PoolBackend, SimBackend};
pub use speedup::SpeedupModel;
