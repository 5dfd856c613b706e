//! Synthetic DRAM chip generator: the workspace's stand-in for real silicon.
//!
//! The paper images physical dies; we cannot. Instead this crate generates
//! Fig.-10-style sense-amplifier-region layouts with known ground truth and
//! voxelises them into a 3-D [`MaterialVolume`] that the imaging pipeline
//! (`hifi-imaging`) slices like a FIB/SEM and the extractor (`hifi-extract`)
//! reverse engineers. Because the generator knows the intended netlist and
//! transistor dimensions, the whole reverse-engineering pipeline becomes
//! testable end to end — our substitute for the paper's independent-vendor
//! confirmation.
//!
//! The generated layout follows the paper's observed organisation:
//!
//! - bitlines run along **X** on metal 1 and enter the region through a
//!   MAT→SA transition zone,
//! - **column transistors are the first elements** after the MAT (§V-C),
//! - precharge / isolation / offset-cancellation devices share **common
//!   poly gates spanning the region along Y** (§V-C),
//! - latch transistors sit in per-pair slots with M2 cross-coupling,
//! - control rails (LA, LAB, VPRE, LIO, LIOB) are shared across stacked
//!   cells through M2 spines,
//! - an optional MAT strip adds honeycomb stacked capacitors (Fig. 7a).
//!
//! # Examples
//!
//! ```
//! use hifi_synth::{SaRegionSpec, generate_region};
//! use hifi_circuit::topology::SaTopologyKind;
//!
//! let spec = SaRegionSpec::new(SaTopologyKind::OffsetCancellation);
//! let region = generate_region(&spec);
//! assert!(region.layout().len() > 0);
//! let volume = region.voxelize();
//! assert!(volume.len() > 0);
//! ```

mod cell;
mod material;
mod region;
mod spec;

pub use cell::{CellGroundTruth, SaCell};
pub use material::{Material, MaterialVolume};
pub use region::{expected_polarity, generate_region, RegionGroundTruth, SaRegion};
pub use spec::SaRegionSpec;
