//! # fpdq-perf
//!
//! The analytic performance model behind the paper's §III
//! characterization of Stable Diffusion inference:
//!
//! * [`census()`][census::census] — runs the `fpdq-nn` U-Net's forward on
//!   a shape interpreter (no weights allocated) and emits every layer's
//!   FLOPs, parameter bytes and activation traffic under the model's own
//!   layer names, classed the way the paper's Figure 4 groups them
//!   (Conv2d / Linear / Norm / SiLU / attention-internals);
//! * [`device`] — roofline device presets calibrated to the paper's
//!   hardware (V100-class GPU, Xeon-Gold-class CPU, plus H100/Blackwell
//!   entries encoding the "FP8/INT8 and FP4/INT4 have equal peak
//!   throughput" premise from §I);
//! * [`roofline`] — per-layer latency = max(compute, memory) + launch
//!   overhead, aggregated into the Figure-4 breakdown;
//! * [`memory`] — a peak-VRAM planner over the U-Net graph including the
//!   attention score matrices and the skip-connection stash, reproducing
//!   Figure 5's batch-size curve and the "attention dominates" finding.
//!
//! The paper measured a real 860M-parameter Stable Diffusion;
//! [`census::sd_scale_config`] provides a U-Net configuration at those
//! dimensions so the model reproduces the *shape* of the measured
//! breakdowns on the same architecture class.

pub mod census;
pub mod device;
pub mod memory;
pub mod roofline;

pub use census::{census, sd_scale_config, Census, LayerClass, LayerCost};
pub use device::{Device, NumberFormat};
pub use memory::{peak_memory, MemoryReport};
pub use roofline::{latency, LatencyReport};
