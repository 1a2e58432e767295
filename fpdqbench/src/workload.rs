//! The three workloads, their seeded inputs and offline references.

use fpdq::container::SimPipeline;
use fpdq::data::CaptionedScenes;
use fpdq::serve::ServeModel;
use fpdq::tensor::Tensor;

/// DDIM steps per request (every tiny schedule has 20).
pub const STEPS: usize = 20;

/// Images per `generate_seeded` call on the offline workload.
pub const OFFLINE_BATCH: usize = 16;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `fpdq serve` on the tiny FP8 pixel model, unconditional requests.
    ServeUncondFp8,
    /// `fpdq serve` on the tiny text-to-image FP4 model, prompted requests.
    ServeGuidedFp4,
    /// In-process `generate_seeded` batches on the tiny FP8 model.
    OfflineBatchFp8,
}

impl Workload {
    /// Every workload the command accepts (`BENCHMARK.json` gates the
    /// served two; see the README).
    pub const ALL: [Workload; 3] =
        [Workload::ServeUncondFp8, Workload::ServeGuidedFp4, Workload::OfflineBatchFp8];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeUncondFp8 => "serve-uncond-fp8",
            Workload::ServeGuidedFp4 => "serve-guided-fp4",
            Workload::OfflineBatchFp8 => "offline-batch-fp8",
        }
    }

    /// `fpdq pack` model and config.
    pub fn pack_args(self) -> (&'static str, &'static str) {
        match self {
            Workload::ServeGuidedFp4 => ("tiny-sd", "fp4"),
            Workload::ServeUncondFp8 | Workload::OfflineBatchFp8 => ("tiny", "fp8"),
        }
    }

    /// Whether requests go through `fpdq serve`.
    pub fn served(self) -> bool {
        self != Workload::OfflineBatchFp8
    }

    /// Whether requests carry a prompt.
    pub fn prompted(self) -> bool {
        self == Workload::ServeGuidedFp4
    }
}

/// One request's inputs: all the program receives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    /// Per-image seed.
    pub seed: u64,
    /// Prompt (prompted workloads only).
    pub prompt: Option<String>,
}

impl Input {
    /// The `POST /v1/generate` body.
    pub fn body(&self) -> String {
        match &self.prompt {
            Some(p) => format!(
                r#"{{"seed":{},"steps":{STEPS},"prompt":"{}"}}"#,
                self.seed,
                crate::http::json_escape(p)
            ),
            None => format!(r#"{{"seed":{},"steps":{STEPS}}}"#, self.seed),
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic request inputs derived from the workload seed.
pub struct Inputs {
    seed: u64,
    prompted: bool,
    captions: Vec<String>,
}

impl Inputs {
    /// Inputs for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let prompted = workload.prompted();
        let captions = if prompted { CaptionedScenes::all_captions() } else { Vec::new() };
        Inputs { seed, prompted, captions }
    }

    /// The `index`-th input of `stream` (one stream per client and
    /// phase, so clients never share seeds).
    pub fn get(&self, stream: u64, index: u64) -> Input {
        let h = splitmix64(self.seed ^ splitmix64(stream.wrapping_mul(0x1_0000_0001) ^ index));
        // Keep seeds within the exactly-representable JSON integer range.
        let seed = h >> 11;
        let prompt = self
            .prompted
            .then(|| self.captions[(splitmix64(h) % self.captions.len() as u64) as usize].clone());
        Input { seed, prompt }
    }
}

/// The pipeline as the serving layer sees it.
pub fn serve_model(pipeline: &SimPipeline) -> &dyn ServeModel {
    match pipeline {
        SimPipeline::Ddim(p) => p,
        SimPipeline::Ldm(p) => p,
        SimPipeline::Sd(p) => p,
    }
}

/// Offline reference images, one `[c·h·w]` f32 vector per input, from
/// the public `generate_seeded` at batch [`OFFLINE_BATCH`].
pub fn reference(pipeline: &SimPipeline, inputs: &[Input]) -> Vec<Vec<f32>> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let seeds: Vec<u64> = inputs.iter().map(|i| i.seed).collect();
    let imgs = match pipeline {
        SimPipeline::Ddim(p) => p.generate_seeded(&seeds, STEPS, OFFLINE_BATCH),
        SimPipeline::Ldm(p) => p.generate_seeded(&seeds, STEPS, OFFLINE_BATCH),
        SimPipeline::Sd(p) => {
            let prompts: Vec<String> =
                inputs.iter().map(|i| i.prompt.clone().expect("prompted workload")).collect();
            p.generate_seeded(&prompts, &seeds, STEPS, OFFLINE_BATCH)
        }
    };
    split_images(&imgs)
}

/// Splits `[n, c, h, w]` into per-image data.
pub fn split_images(imgs: &Tensor) -> Vec<Vec<f32>> {
    let n = imgs.dim(0);
    let per = imgs.numel().checked_div(n).unwrap_or(0);
    imgs.data().chunks(per.max(1)).take(n).map(<[f32]>::to_vec).collect()
}

/// Lower-case hex of the little-endian bytes (the `pixels_hex` wire
/// form), written here rather than taken from `fpdq::serve::api` so the
/// output check does not use the encoder it checks.
pub fn to_hex(data: &[f32]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(data.len() * 8);
    for v in data {
        for b in v.to_le_bytes() {
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 15) as usize] as char);
        }
    }
    out
}

/// FNV-1a over the little-endian bytes of every image, in order.
pub fn digest(images: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in images.iter().flatten() {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::new(Workload::ServeGuidedFp4, 3);
        let b = Inputs::new(Workload::ServeGuidedFp4, 3);
        let c = Inputs::new(Workload::ServeGuidedFp4, 4);
        assert_eq!(a.get(1, 5), b.get(1, 5));
        assert_ne!(a.get(1, 5), c.get(1, 5));
        assert_ne!(a.get(0, 5), a.get(1, 5));
        assert!(a.get(0, 0).prompt.is_some());
        assert!(Inputs::new(Workload::ServeUncondFp8, 3).get(0, 0).prompt.is_none());
        assert!(a.get(2, 9).seed < 1 << 53);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn hex_matches_the_wire_encoding() {
        assert_eq!(to_hex(&[1.0, -2.0]), "0000803f000000c0");
        assert_ne!(digest(&[vec![1.0]]), digest(&[vec![-1.0]]));
    }
}
